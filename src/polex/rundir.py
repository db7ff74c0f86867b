"""On-disk layout of a policy-extraction run.

    rundir/
      schema.txt          table definitions
      constraints.txt     editable constraint config
      handlers/*.hdl      handler programs
      intern.json         string interning table (written when a string is interned)
      transcripts/<inputId>.jsonl
      inputs/<inputId>.json
      policies/<handler>.sql, policies/final.sql
      reports/

Every policy view's witness input id resolves to a file under inputs/.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .constraints import Constraint, ConstraintError, expand_all, parse_constraint_file
from .dsl import HandlerProgram, parse_handlers
from .instance import ConcreteInput
from .lexutil import SourceError, tokenize
from .normal import NormalizeError, session_view
from .policygen import View
from .schema import Interner, Schema, SchemaError, load_schema
from .transcript import Transcript, transcript_from_jsonl, transcript_to_jsonl
from .unparse import unparse_view


class RunDirError(Exception):
    pass


def _load(path: Path, load):
    """`load(path)`; a malformed file raises RunDirError naming it."""
    try:
        return load(path)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, SchemaError) as e:
        raise RunDirError(f"malformed {path}: {e}") from e


def _id_order(input_id: str) -> tuple[str, int]:
    """Sort key of an input id `<handler>-<seq>`: the handler, then the
    number; a name with no number after its last `-` sorts by its text."""
    name, _, seq = input_id.rpartition("-")
    return (name, int(seq)) if seq.isdecimal() else (input_id, -1)


def _is_run_of(input_id: str, handler: str) -> bool:
    """Whether `input_id` is `<handler>-<digits>`: `h-notes` and `hh-0001` are not `h`'s."""
    return input_id.startswith(f"{handler}-") and input_id[len(handler) + 1:].isdecimal()


@dataclass
class RunDirectory:
    root: Path

    def __post_init__(self):
        self.root = Path(self.root)

    # -- paths -------------------------------------------------------------

    @property
    def schema_path(self) -> Path:
        return self.root / "schema.txt"

    @property
    def constraints_path(self) -> Path:
        return self.root / "constraints.txt"

    @property
    def handlers_dir(self) -> Path:
        return self.root / "handlers"

    @property
    def transcripts_dir(self) -> Path:
        return self.root / "transcripts"

    @property
    def inputs_dir(self) -> Path:
        return self.root / "inputs"

    @property
    def policies_dir(self) -> Path:
        return self.root / "policies"

    @property
    def reports_dir(self) -> Path:
        return self.root / "reports"

    @property
    def intern_path(self) -> Path:
        return self.root / "intern.json"

    # -- inputs ------------------------------------------------------------

    def load_schema(self) -> Schema:
        if not self.schema_path.exists():
            raise RunDirError(f"no schema file at {self.schema_path}")
        return load_schema(self.schema_path)

    def load_constraints(self, schema: Schema) -> list[Constraint]:
        """The expanded constraints; a line that does not parse or expand
        raises RunDirError naming the file and the line.  `intern.json` is
        written only when a line interns a new string."""
        interner = _load(self.intern_path, Interner.load)
        known = len(interner.mapping)
        constraints: list[Constraint] = []
        if self.constraints_path.exists():
            text = self.constraints_path.read_text(encoding="utf-8")
            for n, line in enumerate(text.splitlines(), 1):
                try:
                    constraints += expand_all(parse_constraint_file(line, schema, interner), schema)
                except (ConstraintError, SourceError, NormalizeError, SchemaError) as e:
                    raise RunDirError(f"malformed {self.constraints_path} line {n} ({line.strip()}): {e}") from e
        if len(interner.mapping) != known:
            interner.save(self.intern_path)
        return constraints

    def load_handlers(self) -> dict[str, tuple[HandlerProgram, Path]]:
        out: dict[str, tuple[HandlerProgram, Path]] = {}
        if not self.handlers_dir.is_dir():
            return out
        for path in sorted(self.handlers_dir.glob("*.hdl")):
            for program in parse_handlers(path.read_text(encoding="utf-8")):
                if program.name in out:
                    raise RunDirError(f"duplicate handler {program.name!r}")
                out[program.name] = (program, path)
        return out

    # -- transcripts and inputs ---------------------------------------------

    def write_transcript(self, t: Transcript, meta: dict) -> Path:
        self.transcripts_dir.mkdir(parents=True, exist_ok=True)
        path = self.transcripts_dir / f"{t.input_id}.jsonl"
        path.write_text(transcript_to_jsonl(t, meta), encoding="utf-8")
        return path

    def read_transcript(self, input_id: str) -> tuple[dict, Transcript]:
        path = self.transcripts_dir / f"{input_id}.jsonl"
        if not path.exists():
            raise RunDirError(f"no transcript for input id {input_id!r}")
        return _load(path, lambda p: transcript_from_jsonl(p.read_text(encoding="utf-8")))

    def transcript_ids(self, handler: str | None = None) -> list[str]:
        """Input ids with a transcript, by handler and then in the order
        the handler's inputs were made: `h-10000` after `h-9999`."""
        if not self.transcripts_dir.is_dir():
            return []
        ids = sorted((p.stem for p in self.transcripts_dir.glob("*.jsonl")), key=_id_order)
        if handler is not None:
            ids = [i for i in ids if _is_run_of(i, handler)]
        return ids

    def remove_runs(self, handler: str) -> None:
        """Delete `handler`'s transcripts and inputs, matched by id as
        `transcript_ids` matches them, so no other handler's are touched."""
        for directory, suffix in ((self.transcripts_dir, ".jsonl"), (self.inputs_dir, ".json")):
            for path in directory.glob(f"*{suffix}"):
                if _is_run_of(path.stem, handler):
                    path.unlink()

    def write_input(self, ci: ConcreteInput, schema: Schema) -> Path:
        self.inputs_dir.mkdir(parents=True, exist_ok=True)
        path = self.inputs_dir / f"{ci.input_id}.json"
        ci.save(path, schema)
        return path

    def read_input(self, input_id: str, schema: Schema) -> ConcreteInput:
        path = self.inputs_dir / f"{input_id}.json"
        if not path.exists():
            raise RunDirError(f"no input for id {input_id!r}")
        return _load(path, lambda p: ConcreteInput.load(p, schema))

    # -- policies ------------------------------------------------------------

    def policy_path(self, name: str) -> Path:
        return self.policies_dir / f"{name}.sql"

    def write_policy(self, name: str, views: list[View], schema: Schema) -> Path:
        self.policies_dir.mkdir(parents=True, exist_ok=True)
        path = self.policy_path(name)
        path.write_text(render_policy(views, schema), encoding="utf-8")
        return path


def render_policy(views: list[View], schema: Schema) -> str:
    chunks = []
    for k, v in enumerate(views, start=1):
        header = f"-- view {k}"
        if v.handler:
            header += f"  handler={v.handler}"
        if v.witness:
            header += f"  witness={v.witness}"
        chunks.append(f"{header}\n{unparse_view(v.nf, schema)};\n")
    return "\n".join(chunks)


_HEADER_RE = re.compile(r"--\s*view\s+\d+(?:\s+handler=(?P<handler>\S+))?(?:\s+witness=(?P<witness>\S+))?")


def parse_policy_text(text: str, schema: Schema) -> list[View]:
    """Parse a policy file: `;`-terminated view statements (a comment may
    follow the `;`) with optional `-- view k handler=... witness=...`
    headers.  Each view must pass `session_view`, which raises
    NormalizeError otherwise."""
    views: list[View] = []
    handler = witness = ""
    statement_lines: list[str] = []

    def flush():
        nonlocal handler, witness, statement_lines
        stmt = "\n".join(statement_lines).strip()
        statement_lines = []
        if not stmt:
            return
        views.append(View(session_view(stmt, schema), handler=handler, witness=witness))
        handler = witness = ""

    for raw in text.splitlines():
        line = raw.rstrip()
        m = _HEADER_RE.match(line.strip())
        if m:
            handler = m.group("handler") or ""
            witness = m.group("witness") or ""
            continue
        stripped = line.strip()
        if stripped.startswith("--") or not stripped:
            continue
        if ";" in stripped and not stripped.endswith(";"):
            last = tokenize(stripped)[-2]  # the tokenizer skips comments outside quotes
            stripped = stripped[: last.col] if last.text == ";" else stripped
        if stripped.endswith(";"):
            statement_lines.append(stripped[:-1])
            flush()
        else:
            statement_lines.append(line)
    if statement_lines:
        flush()
    return views


def load_policy_file(path: str | Path, schema: Schema) -> list[View]:
    p = Path(path)
    if not p.exists():
        raise RunDirError(f"no policy file at {p}")
    return parse_policy_text(p.read_text(encoding="utf-8"), schema)
