"""One CLI invocation with spans around every call into the package.

Usage: python traced_cli.py SPANS_OUT PARENT_ID ID_PREFIX CLI_ARG...

Writes the spans as JSON to SPANS_OUT when the command ends and exits
with the command's exit code.  The untraced session calls
bistable_waves.cli.entrypoint directly instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

from spans import Tracer


def main() -> int:
    spans_out, parent, prefix, *argv = sys.argv[1:]
    tracer = Tracer(id_prefix=prefix, root_parent=parent)
    try:
        with tracer.span("cli.import"):
            from bistable_waves import cli, linear_theory, reaction, shooting, simulator
        tracer.instrument([reaction, linear_theory, shooting, simulator, cli])
        command = "sweep" if "--sweep" in argv else argv[0]
        with tracer.span(f"cli.main[{command}]"):
            return cli.main(argv)
    finally:
        tracer.dump(Path(spans_out))


if __name__ == "__main__":
    raise SystemExit(main())
