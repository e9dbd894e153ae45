"""Modules of scipy's tree loaded from their files.

Importing a module through its scipy subpackage runs that subpackage's
__init__, which for scipy.sparse, scipy.special and scipy.integrate costs
0.2-0.3 s and 19-24 MB, most of it scipy's array-API layer. The engines
need one self-contained module from each (SuperLU's extension, Boost's
kernels, the DOP853 tableau), so they load it from its file instead, in
a few ms at most.
"""

import importlib.machinery
import importlib.util
import os
import sys

import scipy


def load(*parts):
    """The module scipy/<parts> run from its file, the last part a .py
    file name or the stem of an extension module. A missing file raises
    ImportError naming the path."""
    *package, name = parts
    stem, ext = os.path.splitext(name)
    path = os.path.join(scipy.__path__[0], *package, name if ext else
                        name + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"no such file: {path}")
    qualified = ".".join(["scipy", *package, stem])
    known = qualified in sys.modules
    spec = importlib.util.spec_from_file_location(stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not known:
        # a Cython module enters itself in sys.modules under its dotted
        # name; left there, a later import of its subpackage would not
        # bind it as the subpackage's attribute
        sys.modules.pop(qualified, None)
    return module
