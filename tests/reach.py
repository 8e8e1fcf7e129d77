"""Print the package's functions that no command reaches.

Run as `python tests/reach.py`, with the package importable.  It sets a
profile hook before `homdens` is imported, so import-time calls count,
then runs each command once in this process through `homdens.cli.main`,
on small inputs written to a temporary folder, and checks that each
exits with the code its input is meant to give.  It prints, one per line
and sorted, the module-level functions and class methods of `homdens.*`,
dunders left out, whose code never ran.  Functions nested in others are
not listed.  A fresh interpreter also keeps memos that an earlier caller
filled, such as `enumerate_graphs`', from hiding calls.
"""

import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import sys
import tempfile

# The Cauchy-Schwarz instance that `A2(edge, non-edge, T=)` states, both
# factors rooted at label 1.
CS_INSTANCE = (
    "(sum (prod (unlabel () (prod (g plg n=2 labels=1:1 edges=1-2) (g plg n=2 labels=1:1 edges=1-2)))"
    " (unlabel () (prod (g plg n=2 labels=1:1) (g plg n=2 labels=1:1))))"
    " (prod (q -1) (unlabel () (prod (g plg n=2 labels=1:1 edges=1-2) (g plg n=2 labels=1:1)))"
    " (unlabel () (prod (g plg n=2 labels=1:1 edges=1-2) (g plg n=2 labels=1:1)))))\n"
)
CHERRY = "(g plg n=3 labels=1:1 edges=1-2;1-3)"

FILES = {
    "path3.plg": "plg n=3 edges=1-2;2-3\n",
    "k3.plg": "plg n=3 edges=1-2;1-3;2-3\n",
    "k3w.plg": "plg n=3 edges=1-2;1-3;2-3 weights=1/2,1/4,1/4\n",
    "edge1.plg": "plg n=2 labels=1:1 edges=1-2\n",
    "bad.plg": "plg n=2 edges=1-3\n",
    "negedge.qg": "-1 * plg n=2 edges=1-2\n",
    "path3.qg": "1 * plg n=3 edges=1-2;2-3\n",
    "offuniform.qg": "1 * plg n=4 edges=1-2;3-4\n-1/2 * plg n=2 edges=1-2\n",
    "p.poly": "poly vars=x1,x2,x3,x4,x5,x6 ; 1 + -2*x1\n",
    "cert.sos": "sos:\ng: (g plg n=2 labels=1:1 edges=1-2)\n",
    "psitau.qx": "(unlabel () (psitau plg n=1 labels=1:1 | poly vars=x1 ; 1*x1))\n",
    "cs.qx": CS_INSTANCE,
    "sq.qx": f"(prod {CHERRY} {CHERRY})\n",
    "proof.txt": (
        "1: 1 * plg n=3 labels=1:1 edges=1-2;1-3 ; by A1(plg n=2 labels=1:1 edges=1-2)\n"
        "2: @cs.qx ; by A2((g plg n=2 labels=1:1 edges=1-2), (g plg n=2 labels=1:1), T=)\n"
        "3: @sq.qx ; by R2(1, 1)\n"
        "4: 2 * plg n=3 labels=1:1 edges=1-2;1-3 ; by R1(1, 1, 1, 1)\n"
        "5: 1 * plg n=3 edges=1-2;2-3 ; by R3(1, T=)\n"
    ),
    "basis.txt": "plg n=1 labels=1:1\nplg n=2 labels=1:1 edges=1-2\n",
    "k2.plg": "plg n=2 edges=1-2\n",
    "scaled.qx": "(prod (q 2) (g plg n=2 labels=1:1 edges=1-2))\n",
}

# Each command with the exit code it gives, in order: later ones read
# what earlier ones write.
COMMANDS = [
    ("density --in path3.plg --target k3.plg", 0),
    ("density --in edge1.plg --target k3w.plg --root 1:1", 0),
    ("density --in scaled.qx --target k3.plg --root 1:1", 0),
    ("density --in path3.plg --target bad.plg", 2),
    ("enumerate --n 4", 0),
    ("stringent --k 6", 0),
    ("counterexample --form expr --out x.qx", 0),
    ("reduce --poly p.poly --k 6 --out inst.qx", 0),
    ("witness --poly p.poly --sizes 3,1,1,1,1,1 --out wit.plg", 0),
    ("eval --in inst.qx --target wit.plg", 1),
    ("verify-sos --target path3.qg --cert cert.sos", 0),
    ("verify-sos --target psitau.qx --cert cert.sos", 1),
    ("check-proof --in proof.txt --claim path3.qg", 0),
    ("refute --in negedge.qg --max-n 3", 1),
    ("refute --in offuniform.qg --max-n 2 --samples 300 --seed 3", 1),
    ("refute --in x.qx --max-n 3 --samples 2", 0),
    ("moment-matrix --target k2.plg --basis basis.txt", 0),
]


def definitions():
    """Each named function or method of `homdens.*`, dunders left out, as a
    map from its code to its dotted name."""
    import homdens

    out = {}
    for info in pkgutil.iter_modules(homdens.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"homdens.{info.name}")
        for obj in vars(module).values():
            if not (inspect.isclass(obj) or inspect.isfunction(inspect.unwrap(obj))):
                continue
            obj = inspect.unwrap(obj)
            if obj.__module__ != module.__name__:
                continue
            name = obj.__qualname__
            if inspect.isclass(obj):
                members = []
                for attr, member in vars(obj).items():
                    if isinstance(member, property):
                        members += [(attr, f) for f in (member.fget, member.fset, member.fdel)]
                    else:
                        members.append((attr, getattr(member, "__func__", member)))
                for attr, fn in members:
                    if inspect.isfunction(fn) and not (attr.startswith("__") and attr.endswith("__")):
                        out[fn.__code__] = f"{info.name}.{name}.{attr}"
            else:
                out[obj.__code__] = f"{info.name}.{name}"
    return out


def unreached():
    seen = set()
    record = seen.add
    wrong = {}
    with tempfile.TemporaryDirectory() as folder:
        for name, text in FILES.items():
            with open(os.path.join(folder, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        here = os.getcwd()
        os.chdir(folder)
        sys.setprofile(lambda frame, event, arg: record(frame.f_code))
        try:
            from homdens import cli

            for command, code in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    got = cli.main(command.split())
                if got != code:
                    wrong[command] = got
        finally:
            sys.setprofile(None)
            os.chdir(here)
    if wrong:
        raise SystemExit(f"unexpected exit codes: {wrong}")
    return sorted(name for code, name in definitions().items() if code not in seen)


if __name__ == "__main__":
    print("\n".join(unreached()))
