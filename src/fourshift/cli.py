"""Command-line surface: transport, replay, verification, classification,
clock readings, the finite k(X) table, witness search, the pinned replay demo,
and a quick self-test."""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .analysis import (CycleSpec, IsShift, KValue, Witness, k_of_finite,
                       k_of_finite_bruteforce, find_nonshift_witness)
from .core import Config, DomainError, TupleK, classify, validate_tuple
from .generators import (SWAP_23, Particle, TransportWord, apply_word,
                         invert_word, size_report)
from .serial import (emit_config, emit_tuple, emit_word, parse_config,
                     parse_tuple, parse_word)
from .transporter import (canonical_great, make_canonical, make_great,
                          phi_clock, transport, verify)

# Mechanical replay fixture: a three-component tuple driven to good by
# particle moves and one symbol swap, with every intermediate row pinned.
ROWS = [
    ("start", None, ["@0:3", "@-1:201", "@0:22"]),
    ("P", Particle(1), ["@-1:12", "@-1:21", "@0:22"]),
    ("P", Particle(1), ["@-2:102", "@-1:3", "@0:22"]),
    ("P", Particle(1), ["@-3:1002", "@-2:12", "@0:22"]),
    ("SYM 2<->3", SWAP_23, ["@-3:1003", "@-2:13", "@0:33"]),
    ("P", Particle(1), ["@-4:10012", "@-3:112", "@-1:132"]),
    ("P", Particle(1), ["@-5:100102", "@-4:1102", "@-2:1122"]),
]


def _read_tuple(path: str) -> TupleK:
    return parse_tuple(Path(path).read_text())


def _emit(args, payload: dict, plain: str) -> None:
    print(json.dumps(payload) if args.json else plain)


def cmd_transport(args) -> int:
    src = _read_tuple(args.src)
    dst = _read_tuple(args.dst)
    word = transport(src, dst)
    Path(args.output).write_text(emit_word(word))
    for tag, count in sorted(size_report(word).items()):
        print(f"{tag}: {count}")
    print(f"total: {len(word)}")
    return 0


def cmd_apply(args) -> int:
    src = _read_tuple(args.src)
    word = parse_word(Path(args.word).read_text())
    out = apply_word(src, word)
    text = emit_tuple(out)
    if args.output:
        Path(args.output).write_text(text)
    print(text, end="")
    return 0


def cmd_verify(args) -> int:
    src = _read_tuple(args.src)
    dst = _read_tuple(args.dst)
    word = parse_word(Path(args.word).read_text())
    if verify(word, src, dst):
        print("verified")
        return 0
    print("replay does not reach the destination", file=sys.stderr)
    return 1


def cmd_classify(args) -> int:
    x = parse_config(args.config)
    flags = classify(x)
    names = ("prepregood", "pregood", "good", "unihead", "great")
    values = {n: getattr(flags, n) for n in names}
    _emit(args, values, " ".join(n for n in names if values[n]) or "none")
    return 0


def cmd_phi(args) -> int:
    x = parse_config(args.config)
    r = phi_clock(x)
    if r is None:
        _emit(args, {"clock_like": False}, "not clock-like")
    else:
        _emit(args, {"clock_like": True, "a": r.a, "t": r.t},
              f"a={r.a} t={r.t}")
    return 0


def cmd_kfinite(args) -> int:
    lengths = [int(v) for v in args.cycles.split(",") if v.strip()]
    cs = CycleSpec.of(lengths)
    kv = k_of_finite_bruteforce(cs) if args.brute else k_of_finite(cs)
    text = {KValue.BOTTOM: "bottom", KValue.ZERO: "0", KValue.TWO: "2"}[kv]
    _emit(args, {"k": text}, text)
    return 0


def cmd_witness(args) -> int:
    word = parse_word(Path(args.word).read_text())
    result = find_nonshift_witness(word, args.support_bound, args.width_bound)
    if isinstance(result, Witness):
        print(f"witness {emit_config(result.x)} -> {emit_config(result.image)}")
    elif isinstance(result, IsShift):
        print(f"shift {result.n}")
    else:
        print("inconclusive")
    return 0


def cmd_demo(args) -> int:
    t = validate_tuple(tuple(parse_config(s) for s in ROWS[0][2]))
    for label, ins, expected in ROWS:
        if ins is not None:
            t = apply_word(t, TransportWord((ins,)))
        got = [emit_config(c) for c in t]
        print(f"{label:10s} {' '.join(got)}")
        if got != expected:
            print(f"row mismatch: expected {expected}", file=sys.stderr)
            return 1
    if not all(classify(c).good for c in t):
        print("endpoint is not good", file=sys.stderr)
        return 1
    # both stages raise unless their replay reaches the great tuple and
    # then the canonical vector
    great_w, great_t = make_great(t)
    splice, _ = make_canonical(great_t, canonical_great(len(t)))
    print(f"great, then canonical: {len(great_w + splice)} instructions")
    return 0


def cmd_selftest(args) -> int:
    if args.trials < 1:
        raise DomainError("--trials must be at least 1")
    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        k = rng.randrange(1, 4)
        tuples = []
        for _ in range(2):
            while True:
                try:
                    comps = []
                    for _ in range(k):
                        cells = {rng.randrange(-5, 6): rng.randrange(1, 4)
                                 for _ in range(rng.randrange(1, 5))}
                        comps.append(Config.from_cells(cells))
                    tuples.append(validate_tuple(tuple(comps)))
                    break
                except DomainError:
                    continue
        src, dst = tuples
        try:
            # transport raises unless its word maps src to dst; replay its file both ways
            word = parse_word(emit_word(transport(src, dst)))
            ok = verify(word, src, dst) and verify(invert_word(word), dst, src)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            print(f"trial {trial}: error {exc}", file=sys.stderr)
            ok = False
        if not ok:
            failures += 1
    print(f"selftest: {args.trials - failures}/{args.trials} transports verified")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fourshift")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transport", help="compute a verified transport word")
    t.add_argument("--src", required=True)
    t.add_argument("--dst", required=True)
    t.add_argument("-o", "--output", required=True)
    t.set_defaults(func=cmd_transport)

    a = sub.add_parser("apply", help="replay a word file on a tuple")
    a.add_argument("--src", required=True)
    a.add_argument("--word", required=True)
    a.add_argument("-o", "--output")
    a.set_defaults(func=cmd_apply)

    v = sub.add_parser("verify", help="check that a word maps src to dst")
    v.add_argument("--src", required=True)
    v.add_argument("--dst", required=True)
    v.add_argument("--word", required=True)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("classify", help="classification flags of a config")
    c.add_argument("config")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_classify)

    f = sub.add_parser("phi", help="clock reading of a config")
    f.add_argument("config")
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=cmd_phi)

    kf = sub.add_parser("kfinite", help="k(X) for a finite cycle spec")
    kf.add_argument("--cycles", required=True, help="e.g. 1,1,2")
    kf.add_argument("--brute", action="store_true")
    kf.add_argument("--json", action="store_true")
    kf.set_defaults(func=cmd_kfinite)

    w = sub.add_parser("witness", help="search for a non-shift witness")
    w.add_argument("--word", required=True)
    w.add_argument("--support-bound", type=int, default=2)
    w.add_argument("--width-bound", type=int, default=2)
    w.set_defaults(func=cmd_witness)

    d = sub.add_parser("demo", help="replay the pinned demo rows")
    d.set_defaults(func=cmd_demo)

    s = sub.add_parser("selftest", help="randomized transport round-trips")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trials", type=int, default=20)
    s.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError, ValueError) as exc:  # OSError: any path
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # e.g. a dense row over a span of 2^62 cells
        print("error: MemoryError: result too large to hold", file=sys.stderr)
        return 2
    except AssertionError as exc:  # an InternalScheduleViolation
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
