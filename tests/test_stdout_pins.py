"""Stdout pins: the SHA-256 of each command's stdout and its exit code, each
recorded before the code behind it changed its number types, so any change
to a printed byte fails here.

The commands are README's exact examples (``rewrite`` reads README's example
file), the benchmark's exact CLI jobs at seed 1 (no cache flag; the
``verify`` witness matrix fixed at 7 2 3 1), a few larger or rational
requests, ``rewrite`` of one crossing expression whose coefficient is
written as a JSON integer and as four strings, and ``rewrite`` of the
(m, d) = (10, 2) shift pairing and of two multi-term rational files at
d = 3 and d = 4, and ``basis --format json`` with letters of two digits
(d = 10) and of two packed bytes (d = 256, with ``verify``), with no
element and with the empty word.  No command prints a
quadrature column: its last digits depend on the platform's libm.  Run as a
script to print the table anew.
"""

import contextlib
import hashlib
import io
import shlex
from pathlib import Path

import pytest

from ncinv.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# (arguments, sha256 of stdout, exit code)
PINS = [
    ('dim --d 2 --m 4',
     '1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2', 0),
    ('basis --d 2 --m 2',
     '3c3e4b2941bb3d948cced143e005077bd80826f368af2d69cc83d9f25fc3f78b', 0),
    ('basis --d 2 --m 4 --format json',
     '9ede3605c1b5eb10f71869fce8a5a6872c533428b351a3b72eb618bfadcd7f52', 0),
    ('hilbert --d 2 --max-m 7 --method enumeration',
     'c03ee654067874ffeebe0daabfad7158e5bd9e26a31f2c4711a9fecdf366e84d', 0),
    ('rewrite expression.json',
     '9aee8a55d685c024ad1d9d82c76950f6cc44ba2bd0c89320a0a28e41039ebc2f', 0),
    ('verify --d 2 --m 4',
     'cba54f303362cd42361edfc6d4a082de96320a033f3c7cfd48a3746d6523fe60', 0),
    ('verify --d 2 --m 4 --witnesses 5 --seed 7',
     'cba54f303362cd42361edfc6d4a082de96320a033f3c7cfd48a3746d6523fe60', 0),
    ('moments --rule free-poisson --n 8',
     'b637b3b23100305fc589ba1c403e6bb791cb9eddf66381d5261e7f615da756d9', 0),
    ('moments --rule "table:[0,1/2,3]" --n 6',
     'edfc2a733a3ad588db4766ed3356f530872f9c2510ecd70f2b971b9b5fbff042', 0),
    ('dim --d 4 --m 11',
     '343a88fb9cfbfb17e4c6dce631a72f9743c0945deae6322a729059c1ed3ab845', 0),
    ('dim --d 2 --m 16',
     'b0cb588318eeabf4147eacf171c376236f285d7be12076e1a132519871d67967', 0),
    ('dim --d 3 --m 10',
     '370a179de80ae9ffdf5d5ae4266b06cdb5d7e0eb1b0684991ee85af3b8684b02', 0),
    ('dim --d 6 --m 8',
     '294fe74b1431b650f685b95cfc3381d93651e231bc1ffe76f5db0d0e6027e452', 0),
    ('hilbert --d 2 --max-m 60 --method chebyshev --no-cache',
     '5ca16ec4c6052f5ed13992a9e0b83c528f71d79c1648208ffb61f45dd7ea938f', 0),
    ('hilbert --d 4 --max-m 40 --method chebyshev --no-cache',
     '38a0df8506e66f7301fff46af48a33ac5e3ab5d7c92820638a3468cbb02da8ed', 0),
    ('basis --d 2 --m 9',
     'f8f469487a55ff7bcbcd03fa4200c71c56756ab61a0a56570afe4d1b6cbd0283', 0),
    ('basis --d 2 --m 9 --format json',
     '50dec3abcd12a851e34d1b415e2a91ceeed0a02240ac9f5775c57b078b3951a6', 0),
    ('basis --d 4 --m 5',
     'ee850a5d0523048b784f252ee176a3fd0c28d54d26fbc4f21cc497d5be9d80a2', 0),
    ('basis --d 4 --m 5 --format json',
     '315f71de1e6879c56768232335e517276d313883b226a2f87ab14742fef56c33', 0),
    ('basis --d 3 --m 6',
     'dca72026c6c7e881d53b059692be218cf15074ffd6c347e2df75b7263d86cbf8', 0),
    ('basis --d 3 --m 6 --format json',
     '24e462cfa5ebfca70df2abd716d30b44638d7da1c0ef077a431eca4ebd59be4c', 0),
    ('verify --d 2 --m 6',
     '54e32f6dc0075793b4eec9f56d0fa78f0fa757b6955131966dcb1d9694a8dd80', 0),
    ('verify --d 4 --m 4',
     '90e7c59240407013cf93a6c4fa3b528ce5462eb82d0731f396175edef18ee1d6', 0),
    ('verify --d 2 --m 5 --witness-matrix 7 2 3 1',
     'fb2bacb6fb1f65727da32c91e1876162aea1dcf94a1ad9936e9f8b1f56041a07', 0),
    ('moments --rule free-poisson --n 150',
     '56977dd3c198ceacad208a6c5b26af6d57ee233b0ed16cb01d348d140ee70157', 0),
    ('moments --rule "table:[0,1,1/2,3]" --n 12',
     'c31815e2a83842abce45f147866e7b479efad1c424b2cb70902176b896a301cc', 0),
    ('verify --d 3 --m 4 --witnesses 2 --seed 3',
     '20a39b17e3e9bfaff65ab72c6eb02cdede326fbe2c77e727fb8ebf95d916bde0', 0),
    ('verify --d 3 --m 4 --witness-matrix 1/2 1 0 2',
     '20a39b17e3e9bfaff65ab72c6eb02cdede326fbe2c77e727fb8ebf95d916bde0', 0),
    ('rewrite coeff-int.json',
     '0a940717e99e462401a89d2d16fa256f871755e0aec71a34a62d3ee728c234db', 0),
    ('rewrite coeff-str.json',
     '0a940717e99e462401a89d2d16fa256f871755e0aec71a34a62d3ee728c234db', 0),
    ('rewrite coeff-ratio.json',
     '0a940717e99e462401a89d2d16fa256f871755e0aec71a34a62d3ee728c234db', 0),
    ('rewrite coeff-decimal.json',
     'a39a9070b5b4520f7ef59a39800f38a71e1ed429801d595f85714831e43e165f', 0),
    ('rewrite coeff-negative.json',
     '6b3092b6d7600c37c0ab0e299a4bc522a5ef070f6e5fda1090ef0a40e276fe52', 0),
    ('verify --d 3 --m 6 --witness-matrix 7 2 3 1',
     '7bc2f37375147cf9adde346987d50d09c4ca0d4921544a8424d0bce6b6494990', 0),
    ('verify --d 2 --m 6 --witness-matrix 2 0 0 1/2',
     '54e32f6dc0075793b4eec9f56d0fa78f0fa757b6955131966dcb1d9694a8dd80', 0),
    ('moments --rule "table:[0,1,2,3]" --n 40',
     'ebf4e898a5357517fcdbdbfb2e85f55a996b3345f1c4d268641df6455e245703', 0),
    ('rewrite shift-10-2.json',
     'ec095c35660bc65b61c1171804bda564bfbb12916498a7854e86f3b06bff39cc', 0),
    ('rewrite mixed-6-3.json',
     '6f40e509c2b408a498ec73114ba8c1fa71d9c472c61199d9229f404f37dfe087', 0),
    ('rewrite mixed-5-4.json',
     '1a0be56cfe9fa8fc60a42f15514a0ed472f17ce7392ee84960476c59b3baba24', 0),
    ('basis --d 10 --m 2 --format json',
     '8ded13fd52552049c5709678e136f45334720b0ce904dfe865b66995e7481da3', 0),
    ('basis --d 256 --m 2 --format json',
     '2f23c1201614730fc450089458b31afd41c68845ab0fda360a48865d4b15401b', 0),
    ('verify --d 256 --m 2',
     '95d3c747490169f3deeaf681f49c2e18a72368394909d0aada6c28c928484842', 0),
    ('basis --d 3 --m 3 --format json',
     '37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570', 0),
    ('basis --d 2 --m 0 --format json',
     'a191c95558ca0926b9f40badb605dc55a2060f2000079032d3122eaa28f2f741', 0),
]

# The coefficient of the inline ``rewrite`` files, as written in the JSON.
COEFFICIENTS = {"int": "3", "str": '"3"', "ratio": '"3/1"', "decimal": '"0.5"',
                "negative": '"-2/4"'}


def readme_example() -> str:
    """The bracket expression of README's "File formats" section."""
    text = README.read_text(encoding="utf-8").split("### File formats", 1)[1]
    return text.split("```json\n", 1)[1].split("```", 1)[0]


def inline_expression(coeff: str) -> str:
    """Two crossing bracket monomials at m = 4, d = 2: the first weighted by
    ``coeff``, the second by 1 with sign -1."""
    return ('{"m": 4, "d": 2, "terms": ['
            f'{{"coeff": {coeff}, "chords": [[1, 5], [2, 7], [3, 6], [4, 8]]}}, '
            '{"coeff": 1, "chords": [[1, 3], [2, 5], [4, 7], [6, 8]], "sign": -1}]}')


# Larger ``rewrite`` inputs: the shift pairing {i, i + 10} of [20] (603
# output terms), and three crossing monomials each at (m, d) = (6, 3) and
# (5, 4), with unreduced rational coefficients, reversed pairs and a sign.
REWRITES = {
    "shift-10-2": '{"m": 10, "d": 2, "terms": [{"coeff": 1, "chords": ['
                  + ", ".join(f"[{i}, {i + 10}]" for i in range(1, 11)) + ']}]}',
    "mixed-6-3": '{"m": 6, "d": 3, "terms": ['
                 '{"coeff": "-4/6", "chords": [[6, 8], [12, 2], [9, 13], [14, 3], [15, 7], '
                 '[16, 5], [4, 11], [17, 1], [10, 18]]}, '
                 '{"coeff": "9/6", "chords": [[11, 4], [17, 7], [2, 8], [1, 15], [18, 14], '
                 '[12, 3], [9, 5], [6, 16], [10, 13]], "sign": -1}, '
                 '{"coeff": "-3/3", "chords": [[8, 5], [13, 7], [1, 9], [2, 18], [11, 15], '
                 '[14, 3], [6, 16], [4, 10], [17, 12]]}]}',
    "mixed-5-4": '{"m": 5, "d": 4, "terms": ['
                 '{"coeff": "-9/7", "chords": [[4, 17], [13, 18], [20, 14], [5, 10], [9, 15], '
                 '[7, 19], [11, 8], [3, 12], [1, 16], [6, 2]]}, '
                 '{"coeff": "9/6", "chords": [[14, 8], [19, 2], [17, 5], [9, 18], [3, 11], '
                 '[10, 15], [4, 20], [13, 6], [16, 12], [7, 1]], "sign": -1}, '
                 '{"coeff": "2/7", "chords": [[17, 3], [12, 5], [18, 4], [1, 8], [10, 7], '
                 '[2, 16], [19, 9], [14, 20], [15, 6], [11, 13]]}]}',
}


def write_files(directory: Path) -> None:
    """README's example file and the inline ``rewrite`` files."""
    (directory / "expression.json").write_text(readme_example(), encoding="utf-8")
    for name, coeff in COEFFICIENTS.items():
        (directory / f"coeff-{name}.json").write_text(inline_expression(coeff), encoding="utf-8")
    for name, text in REWRITES.items():
        (directory / f"{name}.json").write_text(text, encoding="utf-8")


def run(command: str) -> tuple[str, int]:
    """(sha256 of stdout, exit code) of ``ncinv <command>``, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command))
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


@pytest.mark.parametrize("command, digest, code", PINS, ids=[pin[0] for pin in PINS])
def test_stdout_is_pinned(command, digest, code, tmp_path, monkeypatch):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run(command) == (digest, code)


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_files(Path(tmp))
        for command, _digest, _code in PINS:
            digest, code = run(command)
            print(f"    ({command!r},\n     {digest!r}, {code}),")
