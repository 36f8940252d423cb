"""Data ingestion: annotated CSV and CoNLL-U to the unified tagged format.

Both pipelines end in the same canonical shape: a TaggedSentence with
lowercase lemmatized tokens, a valid BIO tag sequence, and a domain
label (app id for the CSV dataset, category for the CoNLL-U one).
Corpora serialize to JSON Lines, one sentence per line. Every text input
file is read through text_lines. Every refusal of input raises DataError,
except the config's setting checks and the checkpoint's (ValueError).
"""

import csv
import json
import re
from dataclasses import dataclass

from .lemmatizer import lemmatize

TAG_INDEX = {"O": 0, "B": 1, "I": 2}
# longest sentence a corpus may hold: training keeps each sentence's
# (n, n) attention weights for the backward pass
MAX_SENTENCE_TOKENS = 1000

_STRIP_RE = re.compile(r"[^a-z0-9'\s]")
_TOKEN_RE = re.compile(r"^[a-z0-9']+$")
# what surrogateescape decodes each byte that is not UTF-8 to
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


class DataError(ValueError):
    pass


@dataclass
class TaggedSentence:
    app_id: str
    tokens: list
    tags: list  # tag names "O"/"B"/"I"
    category: str | None = None

    def __post_init__(self):
        if not self.domain:
            raise DataError(f"app {self.app_id!r}: empty domain label")
        if len(self.tokens) != len(self.tags) or not self.tokens:
            raise DataError(
                f"app {self.app_id!r}: {len(self.tokens)} tokens vs {len(self.tags)} tags")
        if len(self.tokens) > MAX_SENTENCE_TOKENS:
            raise DataError(f"app {self.app_id!r}: {len(self.tokens)} tokens, "
                            f"more than {MAX_SENTENCE_TOKENS}")
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


def text_lines(path, newline=None):
    """(line number, line) for each line of a text file read as utf-8-sig,
    line end kept; a line that is not UTF-8 raises DataError naming it."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape",
              newline=newline) as fh:
        for lineno, line in enumerate(fh, start=1):
            # isascii() reads a flag; the scan costs as much as a float parse
            if not line.isascii() and _NOT_UTF8.search(line):
                raise DataError(f"line {lineno}: not UTF-8")
            yield lineno, line


def _unique_keys(pairs):
    """json's object_pairs_hook: the object, refusing a key named twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise DataError(f"key {key!r} appears more than once")
        doc[key] = value
    return doc


def read_json(path):
    """The JSON document that a text file holds (see _unique_keys); an
    error names the file."""
    try:
        return json.loads("".join(line for _, line in text_lines(path)),
                          object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, DataError) as exc:
        raise DataError(f"{path}: {exc}") from None


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
    """Tag every contiguous occurrence of each non-empty phrase; returns
    (tags, misses).

    Overlaps resolve longest-phrase-first, then leftmost. A phrase with
    no occurrence counts as an alignment miss, not an error.
    """
    n = len(sentence_tokens)
    tags = ["O"] * n
    claimed = [False] * n
    misses = 0
    for phrase in sorted(requirement_phrases, key=len, reverse=True):
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
    """CSV with App Id / Sentence Content / Feature (All Annotated) columns;
    returns (corpus, counts)."""
    counts = {"dropped_empty": 0, "alignment_misses": 0}
    sentences = []
    # newline="": a quoted cell keeps the line ends the file gives it;
    # strict: a quote left open or followed by text is an error
    reader = csv.DictReader(
        (line for _, line in text_lines(path, newline="")), strict=True)
    try:
        required = ["App Id", "Sentence Content", "Feature (All Annotated)"]
        header = reader.fieldnames or []
        for col in required:
            if col not in header:
                raise DataError(f"missing required column {col!r}")
            if header.count(col) > 1:  # DictReader keeps the last one
                raise DataError(f"column {col!r} appears more than once")
        for rownum, row in enumerate(reader, start=2):
            tokens = clean_tokens(row["Sentence Content"] or "")
            if not tokens:
                counts["dropped_empty"] += 1
                continue
            feature_cell = row["Feature (All Annotated)"] or ""
            phrases = [clean_tokens(p) for p in feature_cell.split(feature_delim)]
            phrases = [p for p in phrases if p]
            tags, misses = align_bio(tokens, phrases)
            counts["alignment_misses"] += misses
            try:
                sentences.append(TaggedSentence(app_id=row["App Id"],
                                                tokens=tokens, tags=tags))
            except DataError as exc:
                raise DataError(f"row {rownum}: {exc}") from None
    except csv.Error as exc:  # e.g. a cell over the field size limit
        # the inner reader's count: DictReader's lags behind on an error
        raise DataError(f"line {reader.reader.line_num}: {exc}") from None
    return Corpus(sentences=sentences), counts


_PUNCT_ONLY_RE = re.compile(r"^[^\w]+$", re.UNICODE)

CONLLU_COLUMNS = 10
_CONLLU_TAGS = {"B-feature": "B", "I-feature": "I"}


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
    runs broken by a drop are repaired, and a sentence left with no
    token is counted as dropped. A sentence's errors name the line of its
    first token. Returns (corpus, counts).
    """
    counts = {"dropped_empty": 0, "alignment_misses": 0}
    sentences = []
    app_name = None
    category = None
    tokens, tags = [], []
    first_line = None

    def flush():
        nonlocal tokens, tags, first_line
        if tokens:
            try:
                if not app_name or not category:
                    raise DataError(
                        "sentence without a non-empty app_name and category")
                sentences.append(TaggedSentence(
                    app_id=app_name, category=category,
                    tokens=tokens, tags=_repair_bio(tags)))
            except DataError as exc:
                raise DataError(f"line {first_line}: {exc}") from None
        elif first_line:  # token lines, every one of them dropped
            counts["dropped_empty"] += 1
        tokens, tags, first_line = [], [], None

    for lineno, line in text_lines(path):
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
            raise DataError(
                f"line {lineno}: expected {CONLLU_COLUMNS} tab-separated "
                f"columns, got {len(cols)}")
        if not 0 <= tag_column < len(cols):
            raise DataError(f"line {lineno}: no column {tag_column}")
        first_line = first_line or lineno
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
        tags.append(_CONLLU_TAGS.get(cols[tag_column], "O"))
    flush()
    return Corpus(sentences=sentences), counts


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
    """The corpus a JSON Lines file holds; an error names the file and
    the line."""
    sentences = []
    try:
        for lineno, line in text_lines(path):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line, object_pairs_hook=_unique_keys)
                problem = _corpus_line_problem(doc)
                if problem:
                    raise DataError(problem)
                sentences.append(TaggedSentence(
                    app_id=doc["app"], category=doc.get("category"),
                    tokens=doc["tokens"], tags=doc["tags"]))
            except (json.JSONDecodeError, DataError) as exc:
                raise DataError(f"line {lineno}: {exc}") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return Corpus(sentences=sentences)
