"""Tiered toy languages with length-bounded declassification.

Parse (.tl / .tl2), infer safety levels, execute under a step budget, and
monitor loops for repeated states; see the README for the CLI.  The package
root exports nothing: import the submodule that does the job (``parser``,
``safety1``, ``secondorder``, ``interp1``, ``opreg``, ``words``, ``cli``).
"""

__version__ = "0.1.0"
