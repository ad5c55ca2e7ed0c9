"""One module per subcommand, each with ``run(args) -> Result``, where
``args`` is the parsed command line, read by attribute (`cli`'s fast
path gives a `SimpleNamespace`, argparse a `Namespace`).

`imptables.cli.main` imports only the module of the subcommand it runs,
so a call compiles no other subcommand's code.  Each reads its integer
settings through `imptables.cli._setting` and renders through
`imptables.cli._render`, one chunk per text line: a long report
(`verify`, `series` csv and bfile) hands it a generator that formats
each line as it is written, a short one (`monoid`, `colors`, `series`
plain) a list, and `table` makes its own chunks.  Whatever can fail is
done before ``run`` returns.  The series vocabulary
(`series.SERIES_VALUES`) and the monoid defaults (`monoid.DEFAULT_*`)
come from the library modules that own them.
"""
