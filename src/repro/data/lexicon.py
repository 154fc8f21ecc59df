"""Embedded English lexicon and a bigram-flavoured sentence sampler.

LibriSpeech transcripts are public-domain audiobook prose.  The sampler below
generates prose-like word sequences from an embedded ~900-word lexicon with
Zipf-ish frequencies and part-of-speech templates, which is enough structure
for the ASR simulation: utterance lengths, word frequencies and sentence
rhythm match audiobook statistics closely while staying fully offline and
deterministic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import RngStream

# Part-of-speech buckets.  Words were chosen from high-frequency English
# (Ogden's Basic English core plus common audiobook vocabulary).
_DETERMINERS = ["the", "a", "an", "this", "that", "these", "those", "his", "her", "their", "my", "your", "our", "its", "some", "any", "every", "each", "no"]

_PRONOUNS = ["i", "you", "he", "she", "it", "we", "they", "one", "who", "everyone", "someone", "nothing", "everything"]

_CONJUNCTIONS = ["and", "but", "or", "so", "yet", "for", "nor", "while", "because", "though", "although", "if", "when", "until", "since", "as", "where", "after", "before"]

_PREPOSITIONS = ["of", "in", "to", "with", "on", "at", "by", "from", "into", "over", "under", "through", "between", "against", "among", "within", "without", "toward", "upon", "about", "across", "behind", "beyond", "near", "during", "along"]

_ADVERBS = ["not", "very", "then", "now", "here", "there", "again", "once", "soon", "never", "always", "often", "almost", "quite", "rather", "perhaps", "indeed", "still", "just", "even", "only", "away", "back", "down", "up", "out", "together", "suddenly", "slowly", "quietly", "gently", "scarcely", "presently", "certainly", "really", "truly", "already", "instead", "therefore", "however", "moreover", "meanwhile", "everywhere", "somewhere"]

_ADJECTIVES = ["good", "great", "little", "old", "young", "new", "long", "short", "high", "low", "small", "large", "early", "late", "strong", "weak", "warm", "cold", "dark", "bright", "deep", "broad", "quick", "slow", "happy", "sad", "quiet", "loud", "white", "black", "red", "green", "blue", "grey", "golden", "silver", "ancient", "modern", "strange", "familiar", "beautiful", "plain", "rich", "poor", "heavy", "light", "soft", "hard", "sweet", "bitter", "clear", "dim", "empty", "full", "open", "closed", "free", "true", "false", "wild", "calm", "gentle", "fierce", "noble", "humble", "curious", "certain", "possible", "whole", "broken", "distant", "present", "former", "final", "first", "second", "third", "last", "next", "other", "same", "different", "several", "many", "few", "own", "dear", "pleasant", "weary", "eager", "anxious", "silent", "steady", "narrow", "wide", "sharp", "dull", "fresh", "faint", "pale", "rough", "smooth", "thick", "thin", "proud", "honest", "clever", "foolish", "brave", "afraid", "glad", "sorry", "busy", "idle", "common", "rare", "simple", "grand", "tiny", "vast", "lonely", "crowded", "splendid", "dreadful", "remarkable", "ordinary", "peculiar", "solemn", "cheerful", "miserable", "delightful", "terrible", "wonderful", "mysterious"]

_NOUNS = ["time", "year", "day", "night", "morning", "evening", "hour", "moment", "man", "woman", "child", "boy", "girl", "friend", "mother", "father", "brother", "sister", "son", "daughter", "wife", "husband", "family", "people", "person", "stranger", "neighbour", "doctor", "captain", "soldier", "sailor", "teacher", "master", "servant", "king", "queen", "prince", "princess", "lady", "gentleman", "world", "country", "city", "town", "village", "house", "home", "room", "door", "window", "wall", "floor", "roof", "garden", "field", "forest", "wood", "tree", "leaf", "flower", "grass", "river", "lake", "sea", "ocean", "shore", "island", "mountain", "hill", "valley", "road", "path", "street", "bridge", "corner", "place", "land", "ground", "earth", "sky", "sun", "moon", "star", "cloud", "wind", "rain", "snow", "storm", "fire", "water", "air", "stone", "rock", "sand", "iron", "gold", "silver", "glass", "paper", "book", "letter", "word", "story", "tale", "song", "voice", "sound", "music", "silence", "light", "shadow", "darkness", "colour", "picture", "face", "eye", "hand", "arm", "foot", "head", "heart", "mind", "soul", "spirit", "body", "hair", "shoulder", "finger", "lip", "smile", "tear", "breath", "sleep", "dream", "thought", "idea", "memory", "hope", "fear", "love", "joy", "sorrow", "anger", "pride", "courage", "truth", "doubt", "question", "answer", "reason", "purpose", "chance", "fortune", "fate", "life", "death", "birth", "youth", "age", "beginning", "end", "middle", "part", "side", "top", "bottom", "edge", "centre", "distance", "length", "depth", "height", "weight", "number", "half", "piece", "pair", "group", "crowd", "company", "army", "ship", "boat", "carriage", "horse", "dog", "cat", "bird", "fish", "sheep", "cattle", "table", "chair", "bed", "lamp", "candle", "clock", "mirror", "box", "bag", "basket", "bottle", "cup", "plate", "knife", "spoon", "coat", "dress", "hat", "shoe", "pocket", "ring", "chain", "key", "lock", "gate", "fence", "farm", "market", "shop", "school", "church", "castle", "tower", "palace", "prison", "station", "office", "kitchen", "hall", "stair", "cellar", "attic", "chamber", "passage", "journey", "voyage", "walk", "ride", "visit", "meeting", "party", "dance", "game", "work", "labour", "trade", "business", "money", "price", "value", "gift", "prize", "reward", "debt", "loss", "gain", "profit", "bread", "meat", "fruit", "wine", "tea", "coffee", "milk", "sugar", "salt", "dinner", "supper", "breakfast", "meal", "feast", "news", "report", "account", "history", "lesson", "example", "effect", "cause", "result", "matter", "thing", "object", "sign", "mark", "line", "point", "circle", "square", "form", "shape", "kind", "sort", "manner", "way", "method", "habit", "custom", "law", "rule", "order", "duty", "right", "power", "force", "strength", "health", "illness", "pain", "comfort", "pleasure", "trouble", "danger", "safety", "peace", "war", "battle", "victory", "defeat", "enemy", "weapon", "sword", "gun", "flag", "nation", "government", "council", "court", "judge", "crime", "punishment", "secret", "mystery", "adventure", "surprise", "wonder", "miracle", "magic", "ghost", "angel", "devil", "heaven", "hell", "god", "church", "prayer", "faith", "religion", "nature", "season", "spring", "summer", "autumn", "winter", "weather", "climate", "harvest", "seed", "root", "branch", "fruit", "crop"]

_VERBS = ["was", "were", "is", "are", "be", "been", "had", "has", "have", "did", "do", "does", "said", "says", "say", "went", "go", "goes", "came", "come", "comes", "saw", "see", "sees", "seen", "knew", "know", "known", "thought", "think", "took", "take", "taken", "gave", "give", "given", "found", "find", "made", "make", "told", "tell", "asked", "ask", "answered", "answer", "looked", "look", "seemed", "seem", "felt", "feel", "heard", "hear", "left", "leave", "kept", "keep", "held", "hold", "brought", "bring", "began", "begin", "stood", "stand", "sat", "sit", "lay", "lie", "walked", "walk", "ran", "run", "turned", "turn", "moved", "move", "stopped", "stop", "waited", "wait", "stayed", "stay", "lived", "live", "died", "die", "loved", "love", "hated", "hate", "wanted", "want", "wished", "wish", "hoped", "hope", "feared", "fear", "believed", "believe", "remembered", "remember", "forgot", "forget", "understood", "understand", "spoke", "speak", "called", "call", "cried", "cry", "laughed", "laugh", "smiled", "smile", "wept", "whispered", "shouted", "replied", "returned", "reached", "arrived", "departed", "entered", "opened", "closed", "raised", "lowered", "lifted", "carried", "dropped", "threw", "caught", "struck", "touched", "pressed", "pulled", "pushed", "drew", "wrote", "read", "sang", "played", "worked", "rested", "slept", "woke", "dreamed", "watched", "listened", "noticed", "observed", "discovered", "learned", "taught", "showed", "followed", "led", "passed", "crossed", "climbed", "fell", "rose", "grew", "changed", "became", "remained", "appeared", "vanished", "happened", "occurred", "continued", "finished", "started", "tried", "failed", "succeeded", "managed", "decided", "chose", "refused", "agreed", "promised", "offered", "accepted", "received", "sent", "bought", "sold", "paid", "spent", "saved", "lost", "won", "fought", "defended", "attacked", "escaped", "hid", "sought", "searched", "travelled", "wandered", "hurried", "paused", "hesitated", "trembled", "shivered", "breathed", "sighed", "gazed", "stared", "glanced", "nodded", "bowed", "knelt", "leaned", "settled", "gathered", "joined", "parted", "met", "greeted", "welcomed", "thanked", "begged", "demanded", "ordered", "obeyed", "served", "helped", "saved", "guarded", "warned", "threatened", "suffered", "endured", "bore", "wore", "ate", "drank", "cooked", "built", "broke", "mended", "cut", "dug", "planted", "burned", "froze", "melted", "shone", "glowed", "faded", "echoed", "rang", "sounded", "filled", "emptied", "covered", "wrapped", "tied", "untied", "locked", "unlocked"]

_INTERJECTIONS = ["oh", "ah", "well", "yes", "no", "alas", "indeed", "why", "hush", "come", "look", "listen"]


@dataclass(frozen=True)
class Lexicon:
    """A part-of-speech bucketed vocabulary with Zipf-ish word weights."""

    determiners: tuple[str, ...]
    pronouns: tuple[str, ...]
    conjunctions: tuple[str, ...]
    prepositions: tuple[str, ...]
    adverbs: tuple[str, ...]
    adjectives: tuple[str, ...]
    nouns: tuple[str, ...]
    verbs: tuple[str, ...]
    interjections: tuple[str, ...]

    def all_words(self) -> list[str]:
        """Every distinct word, sorted, suitable for vocabulary building."""
        seen: set[str] = set()
        for bucket in (
            self.determiners,
            self.pronouns,
            self.conjunctions,
            self.prepositions,
            self.adverbs,
            self.adjectives,
            self.nouns,
            self.verbs,
            self.interjections,
        ):
            seen.update(bucket)
        return sorted(seen)


def default_lexicon() -> Lexicon:
    """The embedded ~900-word lexicon used throughout the reproduction."""
    return Lexicon(
        determiners=tuple(_DETERMINERS),
        pronouns=tuple(_PRONOUNS),
        conjunctions=tuple(_CONJUNCTIONS),
        prepositions=tuple(_PREPOSITIONS),
        adverbs=tuple(_ADVERBS),
        adjectives=tuple(_ADJECTIVES),
        nouns=tuple(sorted(set(_NOUNS))),
        verbs=tuple(sorted(set(_VERBS))),
        interjections=tuple(_INTERJECTIONS),
    )


# Clause templates: sequences of POS tags expanded into words.  Chaining
# clauses with conjunctions yields audiobook-like sentence rhythm.
_CLAUSE_TEMPLATES: tuple[tuple[str, ...], ...] = (
    ("DET", "NOUN", "VERB", "PREP", "DET", "NOUN"),
    ("PRON", "VERB", "DET", "ADJ", "NOUN"),
    ("DET", "ADJ", "NOUN", "VERB", "ADV"),
    ("PRON", "ADV", "VERB", "DET", "NOUN", "PREP", "DET", "NOUN"),
    ("DET", "NOUN", "PREP", "DET", "NOUN", "VERB", "ADJ"),
    ("ADV", "DET", "NOUN", "VERB", "PREP", "DET", "ADJ", "NOUN"),
    ("PRON", "VERB", "ADV", "PREP", "DET", "NOUN"),
    ("DET", "ADJ", "ADJ", "NOUN", "VERB", "DET", "NOUN"),
    ("INTJ", "PRON", "VERB", "DET", "NOUN"),
    ("PRON", "VERB", "PRON", "VERB", "DET", "NOUN"),
)


def _zipf_cdf(size: int) -> list[float]:
    """Cumulative Zipf-ish weights ``1/(rank+2)`` over a bucket of ``size``.

    Built exactly as ``Generator.choice(p=...)`` builds its table from the
    normalised weights — ``cumsum``, then divide by the last entry, which
    makes that entry exactly 1.0 — so ``bisect_right(cdf, uniform())``
    picks what ``choice`` would pick from the same single draw.
    """
    weights = [1.0 / (i + 2.0) for i in range(size)]
    total = sum(weights)
    cdf = np.cumsum([w / total for w in weights])
    cdf /= cdf[-1]
    return cdf.tolist()


@dataclass
class SentenceSampler:
    """Deterministic prose-like sentence generator.

    Sentences are built by expanding 1-4 clause templates joined with
    conjunctions; word choice inside each POS bucket is Zipf-weighted,
    through one cumulative table per bucket built from the frozen lexicon.
    """

    lexicon: Lexicon = field(default_factory=default_lexicon)
    _tables: dict[str, tuple[tuple[str, ...], list[float]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        lex = self.lexicon
        buckets = {
            "DET": lex.determiners,
            "PRON": lex.pronouns,
            "CONJ": lex.conjunctions,
            "PREP": lex.prepositions,
            "ADV": lex.adverbs,
            "ADJ": lex.adjectives,
            "NOUN": lex.nouns,
            "VERB": lex.verbs,
            "INTJ": lex.interjections,
        }
        self._tables = {
            tag: (bucket, _zipf_cdf(len(bucket))) for tag, bucket in buckets.items()
        }

    def _pick(self, rng: RngStream, tag: str) -> str:
        # Zipf-ish preference for the front of the bucket.
        bucket, cdf = self._tables[tag]
        return bucket[bisect_right(cdf, rng.uniform())]

    def clause(self, rng: RngStream) -> list[str]:
        """Sample one clause as a list of words."""
        template = rng.choice(_CLAUSE_TEMPLATES)
        return [self._pick(rng, tag) for tag in template]

    def sentence(self, rng: RngStream, min_words: int = 8, max_words: int = 40) -> list[str]:
        """Sample a sentence of ``min_words``..``max_words`` words."""
        if min_words < 1 or max_words < min_words:
            raise ValueError(f"bad sentence length bounds ({min_words}, {max_words})")
        target = rng.integers(min_words, max_words + 1)
        words = self.clause(rng)
        while len(words) < target:
            words.append(self._pick(rng, "CONJ"))
            words.extend(self.clause(rng))
        return words[:target] if len(words) > max_words else words
