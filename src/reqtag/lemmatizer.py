"""Small deterministic rule-based English lemmatizer.

Good enough for app-review vocabulary: plural and -ing/-ed suffix
stripping, plus a table of only the forms those rules get wrong.
Pre-lemmatized inputs (the CoNLL-U pipeline) bypass this module entirely.
"""

IRREGULAR = {
    "am": "be", "are": "be", "is": "be", "was": "be", "were": "be", "been": "be",
    "being": "be",
    "has": "have", "had": "have", "having": "have",
    "does": "do", "did": "do", "done": "do", "doing": "do",
    "goes": "go", "went": "go", "gone": "go",
    "got": "get", "gotten": "get",
    "made": "make", "making": "make",
    "took": "take", "taken": "take", "taking": "take",
    "gave": "give", "given": "give", "giving": "give",
    "came": "come", "coming": "come",
    "said": "say",
    "saw": "see", "seen": "see",
    "used": "use", "using": "use",
    "kept": "keep",
    "found": "find",
    "sent": "send",
    "bought": "buy",
    "paid": "pay",
    "left": "leave", "leaving": "leave",
    "lost": "lose", "losing": "lose",
    "better": "good", "best": "good",
    "worse": "bad", "worst": "bad",
    "children": "child", "people": "person",
    "men": "man", "women": "woman",
    "feet": "foot", "mice": "mouse",
    "movies": "movie",
    # words ending in -s, common in reviews, that the plural rule would strip
    "always": "always", "perhaps": "perhaps",
}

VOWELS = set("aeiou")


def _strip_double_consonant(stem: str) -> str:
    if (len(stem) >= 4 and stem[-1] == stem[-2]
            and stem[-1] not in VOWELS and stem[-1] not in "ls"):
        return stem[:-1]
    return stem


def lemmatize(word: str) -> str:
    """Lemma of one already-lowercased token."""
    if word in IRREGULAR:
        return IRREGULAR[word]

    # plural nouns / 3rd-person verbs
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith(("ches", "shes", "sses", "xes", "zes")) and len(word) > 4:
        return word[:-2]
    if word.endswith("s") and not word.endswith(("ss", "us", "is", "'s")) and len(word) > 3:
        return word[:-1]

    if word.endswith("ing") and len(word) > 5:
        stem = word[:-3]
        return _strip_double_consonant(stem)

    if word.endswith("ied") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith("ed") and len(word) > 4:
        stem = word[:-2]
        return _strip_double_consonant(stem)

    return word
