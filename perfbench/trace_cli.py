"""Run one coverhom command with the layer wrappers installed.

    python3 perfbench/trace_cli.py LAYERS_JSON -- COVERHOM_ARGS...

The command's report goes to standard output as usual; the per-layer
metrics are written to LAYERS_JSON when the command returns.  The exit
code is the command's.
"""

import json
import sys

import tracer


def main(argv):
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: trace_cli.py LAYERS_JSON -- COVERHOM_ARGS...")
    spans = tracer.Tracer()
    tracer.install(spans)
    from coverhom.cli import main as cli_main

    code = cli_main(cli_args)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(tracer.layer_metrics(spans), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
