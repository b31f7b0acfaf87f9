"""Export tables: a package's public names, each loaded on first use.

A package ``__init__`` states what it exports as one table, *defining
module -> names*, and hands it to :func:`export_table`. Importing the
package then imports none of its submodules; ``package.Name`` (or ``from
package import Name``) imports the one module that defines ``Name`` and
stores the object on the package, so later accesses are plain attribute
reads.
"""

import sys
from importlib import import_module


def export_table(package, table):
    """``(__all__, __getattr__, __dir__)`` for the package named ``package``.

    ``table`` maps a module to the names it defines: ``".sub"`` is
    relative to ``package``, a name without the leading dot is absolute.
    """
    origin = {name: module
              for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = import_module(origin[name], package)
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__():
        return sorted(namespace.keys() | origin)

    return sorted(origin), __getattr__, __dir__
