"""CNF substrate: clause containers, DIMACS I/O, Tseitin encoding.

CNF *simplification* (unit propagation, subsumption, bounded variable
elimination) lives in :mod:`repro.preprocess.cnfsimp` — it is one pass of
the model-preprocessing pipeline, not part of the encoding substrate.
"""

from .cnf import Clause, Cnf, neg, var_of
from .dimacs import DimacsError, dumps_dimacs, loads_dimacs, read_dimacs, write_dimacs
from .tseitin import TseitinEncoder, encode_combinational

__all__ = [
    "Clause",
    "Cnf",
    "neg",
    "var_of",
    "DimacsError",
    "dumps_dimacs",
    "loads_dimacs",
    "read_dimacs",
    "write_dimacs",
    "TseitinEncoder",
    "encode_combinational",
]
