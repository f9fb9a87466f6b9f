"""The CLI's output on tools/cli_digest.py's calls against its listing in
tests/reference/cli_digest.txt."""

import importlib.util
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "reference" / "cli_digest.txt"
spec = importlib.util.spec_from_file_location(
    "cli_digest", ROOT / "tools" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_digest)


def test_cli_output_matches_the_digest_listing():
    # every exit code always; every hash where the versions in the header,
    # which the bytes rest on, are this run's, and else a warning naming the
    # calls whose bytes differ
    lines = FIXTURE.read_text().splitlines()
    header = [line for line in lines if line.startswith("# ")]
    listed = [line.split(" ", 2) for line in lines[len(header):-1]]
    argvs = cli_digest.calls()
    assert [argv for _, _, argv in listed] == list(map(" ".join, argvs))
    assert lines[-1].endswith(f" ({len(argvs)} calls)")
    differ = []
    for (want, code, _), argv in zip(listed, argvs):
        got, got_code = cli_digest.digest(argv)
        assert got_code == int(code), argv
        if got[:12] != want:
            differ.append(" ".join(argv))
    if header[1:] == cli_digest.versions():
        assert not differ, differ
    elif differ:
        warnings.warn(f"{FIXTURE.name} was made with other versions "
                      f"({header[1:]}), and these calls differ: {differ}")
