"""Package exports resolved on first use (PEP 562).

A package declares ``{defining module: (exported names, ...)}`` and calls
:func:`export_on_demand`; importing the package then loads none of those
modules.  A name whose defining module is the package's own submodule of
that name exports the submodule itself.
"""

import importlib


def export_on_demand(namespace: dict, table: dict) -> None:
    """Give the package owning ``namespace`` its ``__all__``, ``__getattr__`` and ``__dir__``.

    ``_EXPORTS`` (exported name -> defining module) stays behind for tests.
    """
    package = namespace["__name__"]
    source = {name: module for module, names in table.items() for name in names}

    def __getattr__(name):
        # An unlisted name may still be a submodule nobody imported yet.
        module = source.get(name, f"{package}.{name}")
        try:
            value = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name != module:
                raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        if module != f"{package}.{name}":
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(source))

    namespace.update(
        __all__=[*namespace.get("__all__", ()), *source],
        _EXPORTS=source,
        __getattr__=__getattr__,
        __dir__=__dir__,
    )
