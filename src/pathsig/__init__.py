"""Path-signature tools for lead-lag and influence analysis of time series.

The package exports each _MODULES module's __all__, imported on the first
use of an exported name, of __all__ or of dir(), so `import pathsig.cli`
loads only what its command calls. A submodule's name is left to the
import system, so `from pathsig import leadlag` loads leadlag alone.
pathsig.signature is the function, never the module.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_MODULES = "tensor_algebra path_core signature leadlag causality dynamics".split()


class _Package(types.ModuleType):
    def __getattr__(self, name: str):
        if ("__all__" in vars(self) or name.startswith("_") and name != "__all__"
                or name in _MODULES + ["io", "cli"] and name != "signature"):
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        modules = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
        for module in modules:
            vars(self).update((n, getattr(module, n)) for n in module.__all__)
        self.__all__ = ["__version__"] + [n for m in modules for n in m.__all__]
        return getattr(self, name)

    def __dir__(self):
        self.__all__  # the first use of __all__ binds the exports
        return super().__dir__()

    def __setattr__(self, name: str, value) -> None:
        # the import system binds each submodule on its package; the
        # signature submodule must not hide the signature function
        if name != "signature" or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
