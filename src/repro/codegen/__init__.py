"""C code generation: the served translation unit as a program (Fig. 3)."""

from .cexpr import CBuffer, ExprPrinter, ctype_of
from .cgen import generate_cpp, generate_main

__all__ = ["generate_cpp", "generate_main", "CBuffer", "ExprPrinter",
           "ctype_of"]
