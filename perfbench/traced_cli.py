"""Run one opoly CLI command with span wrappers installed.

    python3 perfbench/traced_cli.py SPANS_FILE ITEM_ID ARGS...

behaves like `python -m opoly ARGS...` (same stdin, stdout and exit
status) and writes the spans of the run to SPANS_FILE as JSON lines,
each tagged with ITEM_ID.  opoly must be importable (PYTHONPATH).
"""

import sys

import spans


def main():
    path, item, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from opoly import cli

    recorder = spans.Recorder()
    recorder.item = item
    undo = spans.install(recorder)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        spans.uninstall(undo)
        recorder.write_jsonl(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
