"""One module per subcommand, each with ``run(args) -> Result``.

`imptables.cli.main` imports only the module of the subcommand it runs,
so a call compiles no other subcommand's code.
"""
