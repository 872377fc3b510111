"""Workbench for S5-modal many-valued logic over finite safe structures.

Formulas take truth values in [0,1] under Łukasiewicz connectives; the modal
operators read truth values across a finite set of worlds as infima and
suprema.  The package parses formulas, evaluates them exactly over finite
structures, checks Hilbert-style proofs (including a bounded form of an
infinitary rule), searches finite powers of finite chains for countermodels,
and analyzes finite monadic MV-algebras.
"""

__version__ = "0.1.0"
