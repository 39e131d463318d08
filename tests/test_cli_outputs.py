"""CLI stdout, stderr and exit codes pinned: a change of output is a test failure.

Each command line below carries the exit code of ``cli.main``, the SHA-256
and length in bytes of its stdout (UTF-8) and its stderr as text, recorded
from the tree before the change under test.  Every line runs in-process, as
``test_cli.run_cli`` runs one.  The lines cover all twelve commands, both
``--format``s of ``coeffs``, ``delta5`` and ``growth``, a ``coeffs`` line
whose kernel declines a block product (D = 100049, N = 79), an abbreviated
flag and ``--flag=value`` (SPELLINGS), verification failures (exit 1) and
refusals (exit 2), each with empty stdout and one line on stderr.  Every
refusal is cli's own (``cli._usage_error``), usage errors included, so no
text depends on the Python version; help, which argparse formats, is left
out.

To re-record, run

    python tests/test_cli_outputs.py [CHECKOUT [LINE ...]]

which prints the ``DIGESTS`` rows of the given lines, all by default, run
on the ``src/`` of CHECKOUT, this file's checkout by default; to record the
table before a change, give a checkout of its parent commit, and paste the
rows over the table below.  A change that alters output on purpose names
each changed class of line in CHANGES.md.
"""

import contextlib
import hashlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

if __name__ == "__main__":  # the checkout's src/ first, before hecke_eta is imported
    sys.path.insert(0, str(Path(sys.argv[1] if sys.argv[1:] else ROOT) / "src"))

import pytest

from hecke_eta import cli

# (command line, exit code, SHA-256 of stdout, bytes of stdout, stderr)
DIGESTS = [
    ('coeffs --D 5 --N 30', 0, '63f535c2754ec9733d34460b6b87a02de6f7af6587d62aaf9d4d11af98a0e73f', 997, ''),
    ('coeffs --D 13 --N 10 --format json', 0, '6484ab838f0fe60bd4838e5a3cee4617743cce058eaaeeb0d4aebf6eda3d9dcc', 746, ''),
    ('coeffs --D 21 --N 40 --format csv', 0, '98fe46064ed9ec45de664a224d19e387fdd32877877d04a9caac83e9ebb283ad', 1552, ''),
    ('coeffs --D 100049 --N 79', 0, '5cc7fa85b01a9f988841c84bf5dc025e97c206327b23c613eba7be1979759c21', 10941, ''),
    ('coeffs --D 5 --N 21692', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0, 'error: --N exceeds the time budget\n'),
    ('coeffs --D 4000001 --N 1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0, 'error: --D exceeds the limit 4000000 of coeffs\n'),
    ('coeffs --D 4 --N 3', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0, 'error: D=4 is not fundamental (need D = 1 mod 4, squarefree, >= 5)\n'),
    ('coeffs --D 5 --N 3 --format json', 0, '0d1038bf39ab0870fbad4e5d3a96a3784b1cd08403e7e4ff40a39f4e3484ccee', 213, ''),
    ('coeffs --D=5 --N 3 --form json', 0, '0d1038bf39ab0870fbad4e5d3a96a3784b1cd08403e7e4ff40a39f4e3484ccee', 213, ''),
    ('coeffs --D 5', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0, 'error: the following arguments are required: --N\n'),
    ('coeffs --D 5 --N 3 --bogus 1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0, 'error: unrecognized argument: --bogus\n'),
    ('delta5 --N 20', 0, '996cf3f921d43dce1fe249d34d0f4d1d881c908b1a41738a074b93b33b15345c', 745, ''),
    ('delta5 --N 12 --format json', 0, '2af1ac6f74e73d86f80be57df3808f8fb1dc94f2b735669896b0ae432486deda', 917, ''),
    ('verify-table', 0, '295fc50ede3b72548496f78db980bf1ea29d3728bdcc880ffaf96c551fa71dd7', 3027, ''),
    ('verify-modularity --D 5 --samples 3', 0, '4afba65bc633bdc87e5c969add85a5278721532002bd3c70bcfcb885506a9262', 321, ''),
    ('verify-modularity --D 13 --samples 4 --seed 7', 0, '17583add8f5a93e70e6b66bd066eb887da00fe50645a1a0392600ec2a82d18f5', 408, ''),
    ('verify-modularity --D 1001 --samples 5', 1, '2660609c4ab50f4993ee42c73644a35a6648d58e14b02e78f9d4faab5ef53f28', 491, ''),
    ('verify-modularity --D 10009 --samples 4', 1, 'e4ce5efff21a405050fc3237d39a4167ca4d20f124d9b4f68caeab3280bf500e', 351, ''),
    ('verify-modularity --D 53 --samples 20', 1, 'dd79a1d9f0c3b79f1a8591824dd03253870d01d38362df37bd7a91cfa4b4dbf7', 1829, ''),
    ('verify-modularity --D 17 --samples 20 --nmax 600', 0, '88b5056fdc9e36f6384625d8b38cffa09dc47013593eb8b9ff8ec71eee3b1981', 1845, ''),
    ('verify-modularity --D 101 --samples 3 --nmax 3000 --tol 1e-9', 0, 'd2755c0d570940d3110f0db5c9ed0e15bebe9d772d8a1ef3eb2bf8d47c4bd9d6', 318, ''),
    ('verify-modularity --D 1001 --samples 5200', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0, 'error: --samples and --nmax exceed the time budget\n'),
    ('verify-modularity --D 5 --samples 2000000', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0, 'error: --samples and --nmax exceed the time budget\n'),
    ('verify-modularity --D 5 --samples 0', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0, "error: argument --samples: invalid int in [1, 9007199254740992] value: '0'\n"),
    ('oracle-check --D 5 --N 5', 0, '34835ff395dc3edbafe3376f03334260519a1aedad34e623fc20d8e4e9b949b4', 28, ''),
    ('oracle-check --D 5 --N 5016', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0, 'error: --N out of range for the convolution oracle\n'),
    ('oracle-check --D 21 --N 8', 0, '6660254165e9fa00f02725e16bbe848e53898828f3940ad79614edd62bdac40a', 28, ''),
    ('partitions --D 5 --N 10', 0, 'be58f65c4820cd14c4b3ece960f200e677d239dd0367122c2f84db3cdbbacb37', 306, ''),
    ('partitions --D 5 --N 18481', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0, 'error: --N out of range for the partition tables\n'),
    ('partitions --D 13 --N 0', 0, '65b57442dc95c0230e8b7e9a421b99d52ceb192aa001395d84ca8f980a3e9f71', 93, ''),
    ('lvalues --D 5', 0, 'f91888dc42750f7b10677fa309d0deb5c668d717aa65e6cb7df016efffaa26b4', 80, ''),
    ('lvalues --D 1001', 0, 'e92b202c059940584919c9963559680bd2bde9d47e4967951c93aed898679ad7', 84, ''),
    ('periods --D 13', 0, '6f491781c2ea6117d79e13e635e1895cbc3be0af0c1ba8addf6323aaa8adf989', 317, ''),
    ('periods --D 21', 0, '2acbee0a8227fb136701f05af51a83c1d59468408253422a1f56308e8e517bd2', 321, ''),
    ('chars --D 5', 0, 'c7193d4514ff2df0d4199bc92cbcc33e12deec34cd78be1c36e66f928eed535d', 66, ''),
    ('chars --D 9', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0, 'error: D=9 is not fundamental (need D = 1 mod 4, squarefree, >= 5)\n'),
    ('signs --D 13 --N 30', 0, 'be784adb8b16641a832f0e9bf1e799e31c3a4299a728014fc8c0f2d6e633352d', 278, ''),
    ('growth --D 5 --N 30', 0, '4af2713347113ffee0bd89bba429ed79e7f3f25f72d527add3a3d31e9c560eed', 1186, ''),
    ('growth --D 5 --N 30 --format json', 0, 'f44efd0ab14d00e08910ccbef41a50444f4732d61476bb34c7573b75ca2364bc', 1323, ''),
    ('growth --D 17 --N 60 --window-min 10 --window-max 50', 0, 'f6cfb74968b744f8bbf20bd5e1f887020ed0f1ac425eef88a7dff6bbad815814', 2280, ''),
    ('growth --D 1000001 --N 449', 0, '6a5fb65213265301f5cf28e2b53bad47a89921b1f8cbfe50daf2b80562f33f30', 16771, ''),
    ('grid --D 5 --re-steps 2 --im-steps 2', 0, 'b5a8d2c00c9991b307d7157ed3fa610ac33b324bd026dfcbb2bb6478e83d27ac', 450, ''),
    ('grid --D 1001 --re-min -13.360656428755041 --re-max -13.360656428755041 --im-min 0.54500160987474144 --im-max 3 --re-steps 1 --im-steps 2', 1, '86d8985ce3b356ceb997ac971291ba5576949b81a7898587fe1116bc603adc91', 253, ''),
    ('grid --D 13 --re-min -1 --re-max 1 --im-min 0.5 --im-max 1 --re-steps 3 --im-steps 2', 0, '4815c5fdd84106b20cd585d3cc31a26b69552cfda69dbf229813f91544232c59', 576, ''),
    ('grid --D 5 --re-steps 1000001 --im-steps 1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0, 'error: grid size and --nmax exceed the time budget\n'),
    ('grid --D 5 --im-min 1e-300 --im-max 1e-300 --re-steps 1 --im-steps 1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0, 'error: points too close to the real axis: |q| rounds to 1\n'),
    ('grid --re-min -1e-3 --re-max 1e-3 --re-steps 2 --im-steps 1', 0, '7f6a88e7e19c170c0405596c57b8ee20a5b6b379a5fb8a816e8268db0f069347', 276, ''),
    ('grid --re-mi -1e-3 --re-max 1e-3 --re-steps 2 --im-steps 1', 0, '7f6a88e7e19c170c0405596c57b8ee20a5b6b379a5fb8a816e8268db0f069347', 276, ''),
    ('grid --re 1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 0, 'error: ambiguous option: --re could match --re-min, --re-max, --re-steps\n'),
]


# Lines that are not canonical, and the canonical spelling of each.
SPELLINGS = {
    "grid --re-mi -1e-3 --re-max 1e-3 --re-steps 2 --im-steps 1":
        "grid --re-min -1e-3 --re-max 1e-3 --re-steps 2 --im-steps 1",
    "coeffs --D=5 --N 3 --form json": "coeffs --D 5 --N 3 --format json",
}


def run(argv: str) -> tuple[int, bytes, str]:
    """Exit code, stdout and stderr of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv.split())
    return code, out.getvalue().encode(), err.getvalue()


def digest(argv: str) -> tuple[str, int, str, int, str]:
    code, out, err = run(argv)
    return argv, code, hashlib.sha256(out).hexdigest(), len(out), err


def test_every_command_is_pinned():
    assert {argv.split()[0] for argv, *_ in DIGESTS} == set(cli.COMMANDS)
    for command in ("coeffs", "delta5", "growth"):
        formats = {"json" if "--format json" in argv else "csv"
                   for argv, *_ in DIGESTS if argv.split()[0] == command}
        assert formats == {"csv", "json"}, command


def test_failures_and_refusals_are_pinned():
    codes = [code for _, code, *_ in DIGESTS]
    assert codes.count(1) >= 2 and codes.count(2) >= 2
    empty = hashlib.sha256(b"").hexdigest()
    refusals = [(sha, size, err) for _, code, sha, size, err in DIGESTS if code == 2]
    assert all(sha == empty and size == 0 for sha, size, _ in refusals)
    assert all(err.startswith("error: ") and err.count("\n") == 1 for *_, err in refusals)
    assert all(err == "" for _, code, *_, err in DIGESTS if code != 2)


@pytest.mark.parametrize("argv, code, sha, size, err", DIGESTS, ids=[d[0] for d in DIGESTS])
def test_stdout_and_exit_code_unchanged(argv, code, sha, size, err):
    """Stdout (by digest), exit code and stderr."""
    assert digest(argv) == (argv, code, sha, size, err)


def test_other_spellings_print_the_canonical_output():
    """An abbreviated flag, a negative value after it and --flag=value print
    what the canonical spelling of the line prints."""
    rows = {argv: rest for argv, *rest in DIGESTS}
    for other, canonical in SPELLINGS.items():
        assert rows[other] == rows[canonical] and rows[other][0] == 0, other


def record(checkout: Path, lines: list[str]) -> str:
    """The rows that this file, run as a script, prints for these lines."""
    done = subprocess.run(
        [sys.executable, "-B", __file__, str(checkout), *lines],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


def test_rows_are_recorded_from_a_checkout(tmp_path):
    """Run on this checkout, the script prints the pinned rows of the lines
    it is given; run on a checkout whose cli words its refusals otherwise,
    it prints that checkout's stderr."""
    rows = [row for row in DIGESTS if row[0] in ("chars --D 5", "coeffs --D 4 --N 3", "grid --re 1")]
    assert record(ROOT, [row[0] for row in rows]) == "".join(f"    {row!r},\n" for row in rows)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "hecke_eta" / "cli.py"
    source.write_text(source.read_text().replace('f"error: {msg}"', 'f"refused: {msg}"'))
    argv, *pinned, err = rows[-1]
    changed = (argv, *pinned, err.replace("error: ", "refused: "))
    assert record(tmp_path, [argv]) == f"    {changed!r},\n"


if __name__ == "__main__":
    for argv in sys.argv[2:] or [argv for argv, *_ in DIGESTS]:
        print(f"    {digest(argv)!r},")
