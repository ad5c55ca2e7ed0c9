"""One module per subcommand, each with ``run(args) -> Result``.

`imptables.cli.main` imports only the module of the subcommand it runs,
so a call compiles no other subcommand's code.  Each reads its integer
settings through `imptables.cli._setting` and renders through
`imptables.cli._render`; the series vocabulary (`series.SERIES_VALUES`)
and the monoid defaults (`monoid.DEFAULT_*`) come from the library
modules that own them.
"""
