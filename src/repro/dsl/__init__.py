"""The profile specification language (parser + compiler).

A small declarative language for registering monitoring profiles — the
role the paper assigns to the execution-interval specification language of
its reference [15]::

    profile arbitrage {
        watch market-0, market-1 overlap within 10;
    }
    profile inbox {
        subscribe feed/cnn, feed/bbc until overwrite;
    }
    profile digest {
        watch 3, 4, 5 indexed within 20 quota 2;
    }

Use :func:`parse` for the AST and :func:`compile_text` to materialize
profiles against a trace; a ``quota`` clause is the ``need`` of the
t-intervals its statement compiles to, which every engine honours.
"""

from repro._lazy import export_table

__all__, __getattr__, __dir__ = export_table(__name__, {
    ".ast": ("Document", "ProfileSpec", "ResourceRef", "Statement"),
    ".compiler": ("CompiledProfiles", "compile_document", "compile_text"),
    ".errors": ("DslError", "DslSemanticError", "DslSyntaxError"),
    ".parser": ("parse",),
    ".printer": ("format_document", "format_profile", "format_statement"),
    ".tokens": ("Token", "tokenize"),
})
