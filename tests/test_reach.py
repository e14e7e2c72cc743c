"""The reach gate: every function of `src/fourshift` is entered when the
system runs.

`scenario` drives the package the way its users do: the CLI commands on
small word and tuple files, among them a named `SR`, a radius-65 `HL`
and inputs that exit 2, and an orbit-permutation word replayed, written,
read and inverted through the Python API, as the orbit-permute
benchmark workload does.  It runs under `sys.setprofile`, which records
the code object of every Python frame entered.  Each function of the
package, found by `ast` with nested defs included, must be entered,
unless `ALLOWED` names it with the reason it stays.  An entry the
scenario does enter is stale and fails the gate too.  Where the system
reaches a function the scenario misses, widen the scenario, not
`ALLOWED`.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import fourshift
from fourshift.cli import main
from fourshift.generators import TransportWord, apply_word, invert_word
from fourshift.orbitperm import orbit_permutation_instruction
from fourshift.serial import emit_word, parse_tuple, parse_word

PACKAGE = sorted(Path(fourshift.__file__).parent.glob("*.py"))

# Functions the scenario never enters, by module and qualified name, with
# the reason each stays.
ALLOWED = {
    "permbuild.build_mapping_perm":
        "bench/tracing.py spans it by name, and it is the checked oracle of "
        "the maps transport builds by `_mapping_perm`",
    "permbuild.WordPerm.__hash__":
        "keeps `HL` and `SR` instructions hashable",
    "core.TupleK.__getitem__":
        "the orbit-permute set-up in bench/workloads.py indexes a TupleK",
}


def functions(path: Path) -> dict[tuple[int, str], str]:
    """(first line, name) of the code object of each def in the file,
    nested ones included, to the def's qualified name; a decorated def's
    code starts at its first decorator."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    out[first, child.name] = name
                visit(child, name)
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), path.stem)
    return out


def entered(scenario) -> set[tuple[Path, int, str]]:
    """(file, first line, name) of every Python function that
    `scenario()` enters, recorded by `sys.setprofile`."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        scenario()
    finally:
        sys.setprofile(before)
    return {(Path(c.co_filename).resolve(), c.co_firstlineno, c.co_name) for c in codes}


def reach(paths, scenario, allowed) -> tuple[list[str], list[str]]:
    """(the functions of `paths` that `scenario()` never enters and
    `allowed` does not name, the names in `allowed` that are no such
    unentered function), each list sorted."""
    seen = entered(scenario)
    missed = {name for path in paths
              for (line, def_name), name in functions(path).items()
              if (path.resolve(), line, def_name) not in seen}
    return sorted(missed - set(allowed)), sorted(set(allowed) - missed)


# -- the scenario --------------------------------------------------------

SRC = ["@0:3", "@-1:201", "@0:22"]
DST = ["@0:31", "@0:301", "@0:3001"]
# Five components in distinct orbits, permuted by an even 3-cycle.
ORBIT = ["@0:1", "@0:2", "@0:11", "@0:12", "@-2:21"]
BETA = (1, 2, 0, 3, 4)
# Heads closer than the isolation radius of the head shift, so that it
# steps by the two head-gap rewrites; and the window of a radius-65 head.
CLOSE_HEADS = ["@0:30003", "@0:3"]
FAR_WINDOW = ["@-65:" + "0" * 65 + "3" + "0" * 64 + "1"]
WORDS = {
    "named_sr": [{"op": "SR", "k": 21, "h": 1, "U": "SIGMA3_PI",
                  "V": "HEAD", "map": "SIGMA3_PI"}],
    "hs": [{"op": "HS", "e": 2}],
    "hl65": [{"op": "HL", "r": 65, "cycles": [["@65:1", "@-65:1"]]}],
    "empty": [],
    "bad_op": [{"op": "XX"}],
}
CLI_RUNS = [
    # (argv, exit code); {name} is the path of a file written by `scenario`
    (["transport", "--src", "{src}", "--dst", "{dst}", "-o", "{word}"], 0),
    (["verify", "--src", "{src}", "--dst", "{dst}", "--word", "{word}"], 0),
    (["verify", "--src", "{dst}", "--dst", "{src}", "--word", "{word}"], 1),
    (["apply", "--src", "{src}", "--word", "{word}", "-o", "{out}"], 0),
    (["apply", "--src", "{orbit}", "--word", "{orbit_word}"], 0),
    (["apply", "--src", "{close}", "--word", "{named_sr}"], 0),
    (["apply", "--src", "{close}", "--word", "{hs}"], 0),
    (["apply", "--src", "{far}", "--word", "{hl65}"], 0),
    # a witness, a shift and an inconclusive search
    (["witness", "--word", "{word}"], 0),
    (["witness", "--word", "{empty}"], 0),
    (["witness", "--word", "{hs}", "--support-bound", "1", "--width-bound", "1"], 0),
    (["classify", "@-2:1122"], 0),
    (["classify", "@0:3", "--json"], 0),
    (["phi", "@-2:1122", "--json"], 0),
    (["phi", "@0:3"], 0),
    (["kfinite", "--cycles", "1,2,3"], 0),
    (["kfinite", "--cycles", "2,2", "--brute", "--json"], 0),
    (["demo"], 0),
    (["selftest", "--seed", "1", "--trials", "2"], 0),
    # inputs that exit 2
    (["apply", "--src", "{mates}", "--word", "{word}"], 2),
    (["apply", "--src", "{src}", "--word", "{bad_op}"], 2),
    (["verify", "--src", "{src}", "--dst", "{dst}", "--word", "{missing}"], 2),
    (["classify", "@0:4"], 2),
    (["kfinite", "--cycles", "0"], 2),
    (["kfinite", "--cycles", "3,3,3", "--brute"], 2),
    (["witness", "--word", "{word}", "--width-bound", "9"], 2),
    (["selftest", "--trials", "0"], 2),
]


def scenario(tmp: Path) -> None:
    """What the system does, run once: `CLI_RUNS` on files written to
    `tmp`, and an orbit-permutation word built, replayed, written, read
    and inverted through the Python API."""
    files = {"src": SRC, "dst": DST, "orbit": ORBIT, "close": CLOSE_HEADS,
             "far": FAR_WINDOW, "mates": ["@0:1", "@5:1"]}
    paths = {"word": tmp / "word.json", "out": tmp / "out.txt",
             "missing": tmp / "missing.json"}
    for name, lines in files.items():
        paths[name] = tmp / f"{name}.txt"
        paths[name].write_text("".join(line + "\n" for line in lines))
    for name, objs in WORDS.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(objs))

    t = parse_tuple(paths["orbit"].read_text())
    word = TransportWord((orbit_permutation_instruction(t, BETA),))
    got = apply_word(t, word)
    assert got.components == tuple(t.components[BETA.index(i)] for i in range(len(t)))
    assert apply_word(got, invert_word(word)) == t
    paths["orbit_word"] = tmp / "orbit_word.json"
    paths["orbit_word"].write_text(emit_word(word))
    assert parse_word(paths["orbit_word"].read_text()) == word
    named = parse_word(paths["named_sr"].read_text())
    close = parse_tuple(paths["close"].read_text())
    assert apply_word(apply_word(close, named), invert_word(named)) == close

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes = [main([a.format(**paths) for a in argv]) for argv, _ in CLI_RUNS]
    assert codes == [code for _, code in CLI_RUNS], err.getvalue()


# -- the gate --------------------------------------------------------------


def test_every_function_is_reached(tmp_path):
    missed, stale = reach(PACKAGE, lambda: scenario(tmp_path), ALLOWED)
    assert missed == [], "functions the scenario never enters"
    assert stale == [], "allowlist entries the scenario enters"


TOY = '''\
def used():
    return 1


def unused():
    return 2


class K:
    @staticmethod
    def made():
        def inner():
            return 3
        return inner()

    def never(self):
        pass
'''


def test_checker_reports_unentered_functions_and_stale_entries(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    space = {}
    exec(compile(TOY, str(path), "exec"), space)

    def run():
        space["used"]()
        space["K"].made()

    assert list(functions(path).items()) == [
        ((1, "used"), "toy.used"), ((5, "unused"), "toy.unused"),
        ((10, "made"), "toy.K.made"), ((12, "inner"), "toy.K.made.inner"),
        ((16, "never"), "toy.K.never")]
    assert reach([path], run, {}) == (["toy.K.never", "toy.unused"], [])
    assert reach([path], run, {"toy.unused": "kept"}) == (["toy.K.never"], [])
    assert reach([path], run, {"toy.used": "kept", "toy.K.never": "kept"}) == (
        ["toy.unused"], ["toy.used"])
