"""Random well-formed document generator for property tests.

Each generated document is valid by construction and comes with the exact
AST the parser must produce, so tests can assert full structural equality.
The plain-word alphabet is chosen so no word folds to the first word of any
keyword phrase, carries a digit, or contains punctuation; that keeps every
random choice inside the language.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from legalc import (
    Article,
    Document,
    LocDate,
    Signature,
    SignatureKind,
    Statement,
)

# Safe plain words: none folds to قانون/قرار/مرسوم/رقم/ان/بناء/وبناء/ونظرا/
# نظرا/وبعد/وبما/وحيث/يرسم/يقرر/ماده/الماده/في/امضاء/الامضاء.
WORDS = [
    "خبر", "عمل", "شمس", "قمر", "بحر", "جبل", "ورق", "نهر",
    "مدن", "سهل", "ضوء", "ريح", "باب", "حقل", "صوت", "لون",
]

TYPE_SPELLINGS = ["قانون", "قرار", "مرسوم"]
REF_OPENERS = ["ونظرا", "وبعد الاطلاع", "وبعد موافقة", "وبناء على", "بناء على"]
JUST_OPENERS = ["نظرا", "وبعد أن", "وبما أن", "وحيث أن"]
ACK_SPELLINGS = ["يرسم ما يأتي", "يرسم ما يلي", "يقرر ما يأتي", "يقرر ما يلي"]
IMDAA_SPELLINGS = ["إمضاء", "الإمضاء"]

# Every word of every keyword phrase the generator writes.
KEYWORD_WORDS = frozenset(
    w for phrase in [*TYPE_SPELLINGS, *REF_OPENERS, *JUST_OPENERS, *ACK_SPELLINGS,
                     *IMDAA_SPELLINGS, "رقم", "إن", "مادة", "في"]
    for w in phrase.split(" "))

# Code points that keyword matching folds away: harakat (fathatan to sukun,
# and the superscript alef; the hamzas U+0654/U+0655 are left out because
# NFC composes them into the letter before), ZWNJ and RLM.
HARAKAT = "\u064b\u064c\u064d\u064e\u064f\u0650\u0651\u0652\u0670"
FOLDED_NOISE = HARAKAT + "\u200c\u200f"

ARABIC_DIGITS = "٠١٢٣٤٥٦٧٨٩"
ASCII_DIGITS = "0123456789"


@dataclass
class Rendered:
    text: str
    document: Document


def _words(rng: random.Random, low: int, high: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(low, high)))


def _digits(rng: random.Random, low: int = 1, high: int = 4) -> str:
    script = ARABIC_DIGITS if rng.random() < 0.7 else ASCII_DIGITS
    return "".join(rng.choice(script) for _ in range(rng.randint(low, high)))


def _date_word(rng: random.Random) -> str:
    if rng.random() < 0.4:
        return "/".join(_digits(rng, 1, 4) for _ in range(3))
    return _digits(rng, 2, 4)


def _maybe_split(rng: random.Random, text: str) -> list[str]:
    """Render a clause body on one line or, sometimes, across two lines."""
    parts = text.split(" ")
    if len(parts) >= 4 and rng.random() < 0.25:
        cut = rng.randint(2, len(parts) - 2)
        return [" ".join(parts[:cut]), " ".join(parts[cut:])]
    return [text]


def generate_document(rng: random.Random) -> Rendered:
    lines: list[str] = []

    doc_type = rng.choice(TYPE_SPELLINGS)
    number = _digits(rng)
    lines.append(f"{doc_type} رقم {number}")

    title = _words(rng, 2, 6)
    for part in _maybe_split(rng, title):
        lines.append(part)

    issuer = _words(rng, 1, 4)
    if rng.random() < 0.15:
        lines.append(f"إن {issuer} ،")
    else:
        lines.append(f"إن {issuer}،")

    references: list[str] = []
    for _ in range(rng.randint(1, 3)):
        body = _words(rng, 1, 6)
        references.append(body)
        parts = _maybe_split(rng, body)
        parts[0] = f"{rng.choice(REF_OPENERS)} {parts[0]}"
        parts[-1] += rng.choice(("،", "."))
        lines.extend(parts)

    justifications: list[str] = []
    for _ in range(rng.randint(0, 2)):
        body = _words(rng, 1, 5)
        justifications.append(body)
        parts = _maybe_split(rng, body)
        parts[0] = f"{rng.choice(JUST_OPENERS)} {parts[0]}"
        parts[-1] += rng.choice(("،", "."))
        lines.extend(parts)

    ack = rng.choice(ACK_SPELLINGS)
    if rng.random() < 0.15:
        lines.append(f"{ack} :")
    else:
        lines.append(f"{ack}:")

    articles: list[Article] = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.75:
            art_number = _digits(rng, 1, 2)
        else:
            art_number = _words(rng, 1, 2)
        art_title = _words(rng, 1, 3) if rng.random() < 0.5 else None
        header = f"مادة {art_number}:"
        if art_title is not None:
            header += f" {art_title}"
        lines.append(header)
        content_words: list[str] = []
        for line_no in range(rng.randint(1, 3)):
            row = [rng.choice(WORDS) for _ in range(rng.randint(1, 6))]
            # attached punctuation survives the content merge verbatim
            if rng.random() < 0.2:
                k = rng.randrange(len(row))
                row[k] += "،"
            if rng.random() < 0.2:
                row[-1] += "."
            content_words.extend(row)
            lines.append(" ".join(row))
        articles.append(Article(art_number, art_title, " ".join(content_words)))

    use_fi = rng.random() < 0.6
    if use_fi:
        location = _words(rng, 1, 2)
        date = _date_word(rng)
        if rng.random() < 0.5:
            date += " " + _words(rng, 1, 2)
        lines.append(f"{location} في {date}")
        loc_date = LocDate(location, date, True)
    else:
        location = _words(rng, 1, 2)
        date = _date_word(rng)
        if rng.random() < 0.5:
            date += " " + _words(rng, 1, 2)
        lines.append(f"{location} {date}")
        loc_date = LocDate(location, date, False)

    signatures: list[Signature] = []
    if rng.random() < 0.7:
        if rng.random() < 0.6:
            name = _words(rng, 1, 3)
            position = _words(rng, 1, 3)
            lines.append(f"{rng.choice(IMDAA_SPELLINGS)}: {name}")
            lines.append(position)
            signatures.append(Signature(SignatureKind.TYPE1, name, position))
        for _ in range(rng.randint(0 if signatures else 1, 2)):
            position = _words(rng, 1, 3)
            name = _words(rng, 1, 3)
            lines.append(position)
            lines.append(f"{rng.choice(IMDAA_SPELLINGS)}: {name}")
            signatures.append(Signature(SignatureKind.TYPE2, name, position))

    document = Document(
        statement=Statement(doc_type, number),
        title=title,
        issuer=issuer,
        references=tuple(references),
        justifications=tuple(justifications),
        articles=tuple(articles),
        loc_date=loc_date,
        signatures=tuple(signatures),
    )
    return Rendered("\n".join(lines) + "\n", document)


def many_articles(count: int) -> str:
    """A valid document with ``count`` articles, every third one titled."""
    lines = ["مرسوم رقم ٥", "عنوان قصير", "إن الوزير،", "بناء على الدستور،", "يرسم ما يأتي:"]
    for n in range(1, count + 1):
        lines.append(f"مادة {n}: عنوان فرعي" if n % 3 == 0 else f"مادة {n}:")
        lines.append(f"نص المادة رقمها {n}")
    lines.append("بيروت في ٢٠٢٠")
    return "\n".join(lines) + "\n"


def mutate_text(rng: random.Random, text: str) -> str:
    """Break (or maybe not) a document in a structurally interesting way."""
    lines = text.splitlines()
    op = rng.randrange(8)
    if op == 0 and len(lines) > 1:
        del lines[rng.randrange(len(lines))]
    elif op == 1:
        k = rng.randrange(len(lines))
        lines.insert(k, lines[rng.randrange(len(lines))])
    elif op == 2 and len(lines) > 1:
        a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[a], lines[b] = lines[b], lines[a]
    elif op == 3:
        k = rng.randrange(len(lines))
        words = lines[k].split()
        if words:
            del words[rng.randrange(len(words))]
            lines[k] = " ".join(words)
    elif op == 4:
        k = rng.randrange(len(lines))
        words = lines[k].split()
        words.insert(rng.randint(0, len(words)),
                     rng.choice(("مادة", "الإمضاء", "في", "رقم", "إن", "،")))
        lines[k] = " ".join(words)
    elif op == 5:
        k = rng.randrange(len(lines))
        lines[k] = lines[k].replace(":", "", 1)
    elif op == 6:
        k = rng.randrange(len(lines))
        lines[k] = lines[k].replace("،", "", 1)
    else:
        lines.append(_words(rng, 1, 4))
    return "\n".join(lines) + "\n"


def add_fold_noise(rng: random.Random, text: str) -> str:
    """Insert code points that keyword matching folds away: a harakah, ZWNJ
    or RLM inside keyword words, and an RLM after delimiters.  Deleting
    every :data:`FOLDED_NOISE` code point gives ``text`` back."""
    lines = []
    for line in text.splitlines():
        words = line.split(" ")
        for k, word in enumerate(words):
            body = word.rstrip("،.:")
            if body in KEYWORD_WORDS and rng.random() < 0.5:
                mark = rng.choice(FOLDED_NOISE)    # a harakah may also end the word
                at = rng.randint(1, len(body) - (mark not in HARAKAT))
                word = word[:at] + mark + word[at:]
            # a double space or an empty line gives an empty word
            if word and word[-1] in "،.:" and rng.random() < 0.5:
                word += "\u200f"
            words[k] = word
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"
