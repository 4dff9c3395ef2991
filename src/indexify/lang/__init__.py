"""MiniImp: AST, parser, printer, typechecker and concrete interpreter.

Import the submodule that holds a name (`indexify.lang.ast`,
`indexify.lang.parser`, ...): the package itself re-exports nothing, so
importing one submodule loads only the modules that submodule imports.
"""
