"""Data ingestion: annotated CSV and CoNLL-U to the unified tagged format.

Both pipelines end in the same canonical shape: a TaggedSentence with
lowercase lemmatized tokens, a valid BIO tag sequence, and a domain
label (app id for the CSV dataset, category for the CoNLL-U one).
Corpora serialize to JSON Lines, one sentence per line.
"""

import csv
import json
import re
from dataclasses import dataclass, field

from .lemmatizer import lemmatize

TAG_NAMES = ["O", "B", "I"]
TAG_INDEX = {"O": 0, "B": 1, "I": 2}

_STRIP_RE = re.compile(r"[^a-z0-9'\s]")
_TOKEN_RE = re.compile(r"^[a-z0-9']+$")


class SchemaError(ValueError):
    pass


class ParseError(ValueError):
    pass


class DataError(ValueError):
    pass


@dataclass
class TaggedSentence:
    app_id: str
    tokens: list
    tags: list  # tag names "O"/"B"/"I"
    category: str | None = None

    def __post_init__(self):
        if len(self.tokens) != len(self.tags) or not self.tokens:
            raise DataError(
                f"app {self.app_id!r}: {len(self.tokens)} tokens vs {len(self.tags)} tags")
        prev = "O"
        for pos, (tok, tag) in enumerate(zip(self.tokens, self.tags)):
            if tag not in TAG_INDEX:
                raise DataError(f"app {self.app_id!r} position {pos}: bad tag {tag!r}")
            if tag == "I" and prev == "O":
                raise DataError(
                    f"app {self.app_id!r} position {pos}: I tag without preceding B/I")
            if not _TOKEN_RE.match(tok):
                raise DataError(
                    f"app {self.app_id!r} position {pos}: unclean token {tok!r}")
            prev = tag

    @property
    def domain(self) -> str:
        return self.category if self.category is not None else self.app_id

    def tag_indices(self) -> list:
        return [TAG_INDEX[t] for t in self.tags]


@dataclass
class Corpus:
    sentences: list

    @property
    def domains(self) -> dict:
        out = {}
        for i, s in enumerate(self.sentences):
            out.setdefault(s.domain, []).append(i)
        return out

    def __len__(self):
        return len(self.sentences)


@dataclass
class IngestSummary:
    kept: int = 0
    dropped_empty: int = 0
    alignment_misses: int = 0


def clean_tokens(text: str) -> list:
    """Strip special characters, lowercase, tokenize, lemmatize."""
    stripped = _STRIP_RE.sub(" ", text.lower())
    tokens = []
    for raw in stripped.split():
        raw = raw.strip("'")
        if raw:
            tokens.append(lemmatize(raw))
    return tokens


def align_bio(sentence_tokens, requirement_phrases):
    """Tag every contiguous occurrence of each phrase; returns (tags, misses).

    Overlaps resolve longest-phrase-first, then leftmost. A phrase with
    no occurrence counts as an alignment miss, not an error.
    """
    n = len(sentence_tokens)
    tags = ["O"] * n
    claimed = [False] * n
    misses = 0
    for phrase in sorted(requirement_phrases, key=len, reverse=True):
        if not phrase:
            continue
        m = len(phrase)
        matched_any = False
        for start in range(n - m + 1):
            if any(claimed[start:start + m]):
                continue
            if sentence_tokens[start:start + m] == list(phrase):
                tags[start] = "B"
                for j in range(start + 1, start + m):
                    tags[j] = "I"
                for j in range(start, start + m):
                    claimed[j] = True
                matched_any = True
        if not matched_any:
            misses += 1
    return tags, misses


def parse_rebert_csv(path, feature_delim: str = ",") -> tuple:
    """CSV with App Id / Sentence Content / Feature (All Annotated) columns."""
    summary = IngestSummary()
    sentences = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = ["App Id", "Sentence Content", "Feature (All Annotated)"]
        header = reader.fieldnames or []
        for col in required:
            if col not in header:
                raise SchemaError(f"missing required column {col!r}")
        for rownum, row in enumerate(reader, start=2):
            try:
                app_id = row["App Id"]
                content = row["Sentence Content"] or ""
                feature_cell = row["Feature (All Annotated)"] or ""
            except (KeyError, TypeError):
                raise ParseError(f"row {rownum}: unreadable row") from None
            tokens = clean_tokens(content)
            if not tokens:
                summary.dropped_empty += 1
                continue
            phrases = [clean_tokens(p) for p in feature_cell.split(feature_delim)]
            phrases = [p for p in phrases if p]
            tags, misses = align_bio(tokens, phrases)
            summary.alignment_misses += misses
            sentences.append(TaggedSentence(app_id=app_id, tokens=tokens, tags=tags))
            summary.kept += 1
    return Corpus(sentences=sentences), summary


_PUNCT_ONLY_RE = re.compile(r"^[^\w]+$", re.UNICODE)

CONLLU_COLUMNS = 10


def _conllu_tag(raw: str) -> str:
    if raw == "B-feature":
        return "B"
    if raw == "I-feature":
        return "I"
    return "O"


def _repair_bio(tags):
    """Promote orphaned I (left behind by token drops) to B."""
    prev = "O"
    out = []
    for t in tags:
        if t == "I" and prev == "O":
            t = "B"
        out.append(t)
        prev = t
    return out


def parse_conllu(path, tag_column: int = 9) -> tuple:
    """CoNLL-U documents with app_name / *_category metadata comments.

    tag_column is the zero-based column holding the BIO tag (default:
    MISC, column 9). Tokens that are pure punctuation are dropped; BIO
    runs broken by a drop are repaired.
    """
    summary = IngestSummary()
    sentences = []
    app_name = None
    category = None
    tokens, tags = [], []

    def flush():
        nonlocal tokens, tags
        if tokens:
            if app_name is None or category is None:
                raise DataError("sentence without app_name/category metadata")
            sentences.append(TaggedSentence(
                app_id=app_name, category=category,
                tokens=tokens, tags=_repair_bio(tags)))
            summary.kept += 1
        tokens, tags = [], []

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                flush()
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    key = key.strip()
                    if key == "app_name":
                        app_name = value.strip()
                    elif key.endswith("category"):
                        category = value.strip()
                continue
            cols = line.split("\t")
            if len(cols) != CONLLU_COLUMNS and len(cols) != CONLLU_COLUMNS + 1:
                raise ParseError(
                    f"line {lineno}: expected {CONLLU_COLUMNS} tab-separated "
                    f"columns, got {len(cols)}")
            if tag_column >= len(cols):
                raise ParseError(f"line {lineno}: no column {tag_column}")
            token_id = cols[0]
            if "-" in token_id or "." in token_id:
                continue  # multiword/empty nodes carry no tag of their own
            lemma = cols[2].lower()
            if _PUNCT_ONLY_RE.match(lemma) or not lemma:
                continue
            lemma = _STRIP_RE.sub("", lemma).strip("'")
            if not lemma:
                continue
            tokens.append(lemma)
            tags.append(_conllu_tag(cols[tag_column]))
    flush()
    return Corpus(sentences=sentences), summary


def save_corpus(path, corpus: Corpus):
    with open(path, "w", encoding="utf-8") as fh:
        for s in corpus.sentences:
            fh.write(json.dumps({"app": s.app_id, "category": s.category,
                                 "tokens": s.tokens, "tags": s.tags}) + "\n")


def _corpus_line_problem(doc):
    """Why one decoded corpus line is not a sentence object, or None."""
    if not isinstance(doc, dict):
        return f"expected a JSON object, got {type(doc).__name__}"
    for key in ("app", "tokens", "tags"):
        if key not in doc:
            return f"missing key {key!r}"
    if not isinstance(doc["app"], str):
        return "'app' must be a string"
    if not isinstance(doc.get("category"), (str, type(None))):
        return "'category' must be a string or null"
    for key in ("tokens", "tags"):
        if not (isinstance(doc[key], list)
                and all(isinstance(x, str) for x in doc[key])):
            return f"{key!r} must be a list of strings"
    return None


def load_corpus(path) -> Corpus:
    sentences = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            problem = _corpus_line_problem(doc)
            if problem:
                raise ParseError(f"line {lineno}: {problem}")
            sentences.append(TaggedSentence(
                app_id=doc["app"], category=doc.get("category"),
                tokens=doc["tokens"], tags=doc["tags"]))
    return Corpus(sentences=sentences)
