"""Output trees: what each command may find under ``--out``, and the new
tree a run writes beside it and swaps in once the run succeeds."""

from __future__ import annotations

import contextlib
import os
import shutil
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterator

from .report import TABLE_FILES


class CliError(Exception):
    """Failure with a chosen process exit code."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code

    def __reduce__(self):  # so an error a worker process sends up keeps its code
        return type(self), (str(self), self.code)


# Each command's outputs, as paths under --out. An existing --out is replaced
# only if it holds nothing else, so no other file is deleted.
WRITES = {"build": ("run_log.json", "*/graph.json"),
          "stats": (*TABLE_FILES, "summary.json"), "export": ("*/*.dot",)}


def refuse_foreign(root: str, command: str) -> None:
    """Exit 2 unless ``--out`` is missing or a directory holding only paths
    ``command`` writes, each at its depth, and none a symbolic link."""
    out, cwd = Path(os.path.abspath(root)), Path.cwd()
    if out.resolve() in (cwd, *cwd.parents):  # "/" is always among them
        raise CliError(f"--out {root} is or contains the working directory", code=2)
    if out.is_symlink() or out.exists() and not out.is_dir():
        raise CliError(f"--out {root} is a symbolic link or not a directory", code=2)
    for path in out.rglob("*"):  # nothing when --out is missing
        rel = path.relative_to(out).as_posix()
        # a directory a command writes is a "*" component of one of its paths
        if path.is_symlink() or not any(
            rel.count("/") < shape.count("/") if path.is_dir()
            else rel.count("/") == shape.count("/") and fnmatchcase(rel, shape) and path.is_file()
            for shape in WRITES[command]
        ):
            raise CliError(f"--out {root} holds {Path(root, rel)}, which {command} does not write;"
                           " give a new or empty directory", code=2)


@contextlib.contextmanager
def tree(root: str, command: str) -> Iterator[Path]:
    """A new dot-named directory beside ``--out``, made once ``--out`` passes
    :func:`refuse_foreign`. If the ``with`` block ends normally, it replaces
    ``--out``: the old tree is renamed aside, the new one in, and the old one
    removed. If the block raises anything, the new directory and the parents
    of ``--out`` this run made are removed, and ``--out`` is left as it was."""
    refuse_foreign(root, command)
    out = Path(os.path.abspath(root))
    made = [p for p in (out.parent, *out.parent.parents) if not p.is_dir()]  # deepest first
    new = None  # set once made, so a name found taken is never removed
    try:
        name = out.with_name(f".{out.name}.{os.urandom(4).hex()}")
        name.mkdir(parents=True)  # mkdir, unlike tempfile.mkdtemp, gives the mode the umask allows
        new = name
        yield new
        refuse_foreign(root, command)  # --out may have changed while the run read its inputs
        if not os.path.lexists(out):
            new.rename(out)
            return
        aside = new.with_name(new.name + ".old")
        out.rename(aside)
        try:
            new.rename(out)
        except BaseException:
            aside.rename(out)
            raise
        shutil.rmtree(aside)
    except BaseException:
        if new is not None:
            shutil.rmtree(new, ignore_errors=True)
        for directory in made:
            with contextlib.suppress(OSError):  # not empty: something else is in it
                directory.rmdir()
        raise
