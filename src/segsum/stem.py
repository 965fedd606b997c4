"""Porter stemmer (M. Porter, 1980), as used for all corpus tokens.

Kept dependency-free; the standard NLP toolkits are not available in the
deployment environment and the algorithm is small enough to carry.
"""

import functools

_VOWELS = "aeiou"


def _cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC sequences in [C](VC)^m[V]."""
    n = 0
    i = 0
    length = len(stem)
    while i < length and _cons(stem, i):
        i += 1
    while i < length:
        while i < length and not _cons(stem, i):
            i += 1
        if i == length:
            break
        n += 1
        while i < length and _cons(stem, i):
            i += 1
    return n


def _has_vowel(stem: str) -> bool:
    return any(not _cons(stem, i) for i in range(len(stem)))


def _double_cons(stem: str) -> bool:
    return len(stem) >= 2 and stem[-1] == stem[-2] and _cons(stem, len(stem) - 1)


def _cvc(stem: str) -> bool:
    """*o condition: ends cvc where the final c is not w, x or y."""
    if len(stem) < 3:
        return False
    if not (_cons(stem, len(stem) - 3)
            and not _cons(stem, len(stem) - 2)
            and _cons(stem, len(stem) - 1)):
        return False
    return stem[-1] not in "wxy"


_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


# stem is pure; the cache holds one entry per distinct word of the input.
@functools.lru_cache(maxsize=None)
def stem(word: str) -> str:
    w = word.lower()
    if len(w) <= 2:
        return w

    # step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif not w.endswith("ss") and w.endswith("s"):
        w = w[:-1]

    # step 1b
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        flag = False
        if w.endswith("ed") and _has_vowel(w[:-2]):
            w = w[:-2]
            flag = True
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            w = w[:-3]
            flag = True
        if flag:
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _double_cons(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _measure(w) == 1 and _cvc(w):
                w += "e"

    # step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # step 2
    for suffix, repl in _STEP2:
        if w.endswith(suffix):
            base = w[: -len(suffix)]
            if _measure(base) > 0:
                w = base + repl
            break

    # step 3
    for suffix, repl in _STEP3:
        if w.endswith(suffix):
            base = w[: -len(suffix)]
            if _measure(base) > 0:
                w = base + repl
            break

    # step 4
    for suffix in _STEP4:
        if w.endswith(suffix):
            base = w[: -len(suffix)]
            if _measure(base) > 1:
                if suffix == "ion" and (not base or base[-1] not in "st"):
                    break
                w = base
            break

    # step 5a
    if w.endswith("e"):
        base = w[:-1]
        m = _measure(base)
        if m > 1 or (m == 1 and not _cvc(base)):
            w = base

    # step 5b
    if _measure(w) > 1 and w.endswith("ll"):
        w = w[:-1]

    return w
