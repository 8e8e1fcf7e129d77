"""README's examples, run as written.

Every `$ ` line of README's `sh` blocks runs in one temporary folder, in
order, so later commands read what earlier ones write.  `homdens` means
`python -m homdens` on this package's source, and a heredoc's lines up to
its terminator belong to its command.  Each command must print on stdout
exactly the lines README shows under it, and nothing on stderr.

Every `python` block runs too, and each line that starts with `print(`
must print the `#` comment at its end.  `python_calls` runs those blocks
under a profile hook; `tests/test_api.py` holds the documented group of
its `UNREACHED` list to the functions they call.
"""

import io
import os
import re
import shlex
import subprocess
import sys
import tokenize

import homdens

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def blocks(lang):
    """The bodies of README's fenced blocks in `lang`, as lists of lines."""
    out, body = [], None
    with open(README, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if body is None:
                if line == "```" + lang:
                    body = []
            elif line == "```":
                out.append(body)
                body = None
            else:
                body.append(line)
    return out


def shell_examples():
    """(command, the stdout lines README shows) per `$ ` line, in order."""
    examples = []
    for body in blocks("sh"):
        lines, shown = iter(body), None
        for line in lines:
            if line.startswith("$ "):
                command = line[2:]
                heredoc = re.search(r"<< '(\w+)'$", command)
                for more in lines if heredoc else ():
                    command += "\n" + more
                    if more == heredoc.group(1):
                        break
                shown = []
                examples.append((command, shown))
            elif shown is not None:
                shown.append(line)
    return examples


def run_python(code):
    """What each `print` of `code` prints, and what its line's comment says
    it prints."""
    printed = []
    exec(compile(code, README, "exec"), {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(code).readline)
        if tok.type == tokenize.COMMENT
    }
    said = [comments.get(n) for n, line in enumerate(code.splitlines(), 1) if line.startswith("print(")]
    return printed, said


def python_calls():
    """The code objects that README's `python` blocks call."""
    seen = set()
    record = seen.add
    sys.setprofile(lambda frame, event, arg: record(frame.f_code))
    try:
        for body in blocks("python"):
            run_python("\n".join(body))
    finally:
        sys.setprofile(None)
    return seen


def test_shell_examples_print_what_readme_shows(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(homdens.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    define = f'homdens() {{ {shlex.quote(sys.executable)} -m homdens "$@"; }}\n'
    examples = shell_examples()
    assert len(examples) >= 20
    for command, shown in examples:
        done = subprocess.run(
            ["sh", "-c", define + command], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert (done.stdout.splitlines(), done.stderr) == (shown, ""), command


def test_python_examples_print_their_comments():
    bodies = blocks("python")
    assert bodies
    for body in bodies:
        printed, said = run_python("\n".join(body))
        assert printed == said
