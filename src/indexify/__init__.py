"""Indexification: finite memoized operator tables for symbolic execution.

Pipeline: harvest seeds from a program's constants, grow a per-type garden of
values by bounded builder application, memoise the chosen operators into
indexed lookup tables, rewrite the program so those operators work on garden
indices, and symbolically execute the result with an equality-theory solver.
"""

__version__ = "0.1.0"
