"""Per-element atomic data used to synthesise realistic molecules.

Radii are Bondi van der Waals radii (Å) — the same intrinsic radii most
GB implementations use as the Born-radius floor.  Charges in the
synthetic generators are drawn from residue-level templates whose
magnitudes mimic Amber ff partial charges.
"""

from __future__ import annotations

from typing import Dict

#: Bondi van der Waals radii in Å for the elements found in proteins.
VDW_RADII: Dict[str, float] = {
    "H": 1.20,
    "C": 1.70,
    "N": 1.55,
    "O": 1.52,
    "S": 1.80,
    "P": 1.80,
}

#: Rough element composition of an average protein residue
#: (glycine–leucine-ish mixture): (element, multiplicity).
RESIDUE_COMPOSITION = (
    ("N", 1),
    ("C", 4),
    ("O", 1),
    ("H", 7),
)

#: Atoms per average residue implied by :data:`RESIDUE_COMPOSITION`.
ATOMS_PER_RESIDUE = sum(n for _, n in RESIDUE_COMPOSITION)

#: Typical absolute partial charge per element in Amber-style force
#: fields; the generator samples signed charges around these magnitudes
#: and then neutralises each residue to a small integer total.
TYPICAL_ABS_CHARGE: Dict[str, float] = {
    "H": 0.15,
    "C": 0.20,
    "N": 0.45,
    "O": 0.55,
    "S": 0.25,
    "P": 0.80,
}

