"""The concept lexicon: a synonym/concept graph standing in for pretrained knowledge.

The paper relies on S-BERT's pretrained distributional knowledge to map
surface forms like ``Comirnaty``, ``mRNA vaccine`` and ``Pfizer-BioNTech``
near each other and near the query term ``COVID``.  With no pretrained
models available offline, this module supplies that knowledge explicitly:
a graph of *concepts*, each with member terms (synonyms / instances) and
optional broader concepts (hypernyms).  The semantic encoder expands every
token into its concepts (with per-hop decay) before hashing, so synonymous
terms share vector components and land near each other in embedding space.

The same lexicon drives the synthetic corpus generators: a table about a
topic renders the topic's concepts with *different* surface forms than the
query uses, which is exactly the situation the paper's motivating example
(Figure 1) describes — keyword search fails, semantic matching succeeds.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from repro.text.tokenize import normalize_text

__all__ = ["ConceptLexicon", "default_lexicon"]


class ConceptLexicon:
    """A term -> concept graph with hypernym edges.

    Terms may be single tokens or multi-word phrases (phrases are
    normalized; the encoder probes unigrams and bigrams).  Concepts are
    plain string identifiers.
    """

    def __init__(self) -> None:
        self._term_concepts: dict[str, set[str]] = defaultdict(set)
        self._concept_terms: dict[str, set[str]] = defaultdict(set)
        self._broader: dict[str, set[str]] = defaultdict(set)

    # -- construction -------------------------------------------------

    def add_concept(self, concept: str, terms: Iterable[str]) -> None:
        """Register a concept with its member terms (synonyms/instances)."""
        for term in terms:
            key = normalize_text(term)
            if not key:
                continue
            self._term_concepts[key].add(concept)
            self._concept_terms[concept].add(key)

    def add_broader(self, concept: str, broader: str) -> None:
        """Declare that ``concept`` IS-A / is-about ``broader``."""
        if concept == broader:
            raise ValueError(f"concept {concept!r} cannot be broader than itself")
        self._broader[concept].add(broader)

    def merge(self, other: "ConceptLexicon") -> None:
        """Merge another lexicon's contents into this one."""
        for term, concepts in other._term_concepts.items():
            self._term_concepts[term].update(concepts)
        for concept, terms in other._concept_terms.items():
            self._concept_terms[concept].update(terms)
        for concept, broader in other._broader.items():
            self._broader[concept].update(broader)

    # -- queries ------------------------------------------------------

    @property
    def concepts(self) -> list[str]:
        """All concept identifiers, sorted for determinism."""
        return sorted(self._concept_terms)

    def terms_of(self, concept: str) -> set[str]:
        """Member terms of a concept (empty set if unknown)."""
        return set(self._concept_terms.get(concept, ()))

    def has_term(self, term: str) -> bool:
        return normalize_text(term) in self._term_concepts

    def concepts_of(self, term: str, depth: int = 2, decay: float = 0.5) -> dict[str, float]:
        """Weighted concepts a term activates, following broader edges.

        Direct concepts get weight 1.0; each hop up the hypernym chain
        multiplies by ``decay``.  When multiple paths reach the same
        concept, the maximum weight wins.

        >>> lex = ConceptLexicon()
        >>> lex.add_concept("covid_vaccine", ["comirnaty"])
        >>> lex.add_broader("covid_vaccine", "covid")
        >>> lex.concepts_of("comirnaty")
        {'covid_vaccine': 1.0, 'covid': 0.5}
        """
        key = normalize_text(term)
        weights: dict[str, float] = {}
        # Sets iterate in PYTHONHASHSEED order; sorting keeps the returned
        # order, and so the encoder's float sums, the same in every process.
        frontier = {concept: 1.0 for concept in sorted(self._term_concepts.get(key, ()))}
        for _ in range(depth + 1):
            if not frontier:
                break
            next_frontier: dict[str, float] = {}
            for concept, weight in frontier.items():
                if weights.get(concept, 0.0) >= weight:
                    continue
                weights[concept] = weight
                for parent in sorted(self._broader.get(concept, ())):
                    parent_weight = weight * decay
                    if next_frontier.get(parent, 0.0) < parent_weight:
                        next_frontier[parent] = parent_weight
            frontier = next_frontier
        return weights

    def narrower_of(self, concept: str) -> set[str]:
        """Direct narrower concepts (children in the hypernym graph)."""
        return {c for c, parents in self._broader.items() if concept in parents}

    def descendant_terms(self, concept: str, depth: int = 2) -> set[str]:
        """Member terms of a concept and of its descendants up to ``depth``."""
        terms = set(self._concept_terms.get(concept, ()))
        frontier = {concept}
        for _ in range(depth):
            frontier = {c for f in frontier for c in self.narrower_of(f)}
            if not frontier:
                break
            for child in frontier:
                terms.update(self._concept_terms.get(child, ()))
        return terms

    def synonyms_of(self, term: str) -> set[str]:
        """Other terms sharing at least one direct concept with ``term``."""
        key = normalize_text(term)
        related: set[str] = set()
        for concept in self._term_concepts.get(key, ()):
            related.update(self._concept_terms[concept])
        related.discard(key)
        return related

    def __len__(self) -> int:
        return len(self._concept_terms)

    def __contains__(self, concept: str) -> bool:
        return concept in self._concept_terms


# ---------------------------------------------------------------------------
# Built-in world knowledge used by both the encoder and the data generators.
# Each entry: concept -> member terms.  Broader edges connect instances to
# their domains so that e.g. "comirnaty" activates "covid" with decay.
# ---------------------------------------------------------------------------

_CONCEPT_GROUPS: dict[str, list[str]] = {
    # -- medicine / COVID (the paper's motivating example, Figure 1) --
    "covid": ["covid", "covid-19", "coronavirus", "sars-cov-2", "pandemic"],
    "covid_vaccine": [
        "comirnaty", "vaxzevria", "coronavac", "covaxin", "spikevax",
        "pfizer-biontech", "pfizer", "biontech", "moderna", "astrazeneca",
        "janssen", "novavax", "sinovac", "sputnik",
    ],
    "immunogen": ["mrna", "vector virus", "protein subunit", "inactivated virus", "immunogen"],
    "vaccine": ["vaccine", "vaccination", "immunization", "inoculation", "jab", "dose", "dosage", "booster"],
    "disease": ["disease", "illness", "infection", "epidemic", "outbreak", "virus", "pathogen"],
    "hospital": ["hospital", "clinic", "icu", "ward", "healthcare", "patient", "admission"],
    "medicine": ["medicine", "drug", "pharmaceutical", "treatment", "therapy", "medication"],
    "symptom": ["symptom", "fever", "cough", "fatigue", "side effect", "adverse event"],
    # -- geography: per-country concepts under a broader region, so
    # sister countries are related (shared region) but far weaker than
    # true synonyms — "poland" must not match "austria" as strongly as
    # "covid" matches "coronavirus".
    "europe": ["europe", "european", "eu"],
    "germany": ["germany", "german"],
    "france": ["france", "french"],
    "spain": ["spain", "spanish"],
    "italy": ["italy", "italian"],
    "netherlands": ["netherlands", "dutch"],
    "poland": ["poland", "polish"],
    "sweden": ["sweden", "swedish"],
    "ireland": ["ireland", "irish"],
    "portugal": ["portugal", "portuguese"],
    "greece": ["greece", "greek"],
    "austria": ["austria", "austrian"],
    "belgium": ["belgium", "belgian"],
    "denmark": ["denmark", "danish"],
    "finland": ["finland", "finnish"],
    "north_america": ["north america", "north american"],
    "usa": ["usa", "united states", "america", "american"],
    "canada": ["canada", "canadian"],
    "mexico": ["mexico", "mexican"],
    "california": ["california"],
    "texas": ["texas"],
    "florida": ["florida"],
    "new_york": ["new york"],
    "asia": ["asia", "asian"],
    "china": ["china", "chinese", "beijing"],
    "japan": ["japan", "japanese", "tokyo"],
    "india": ["india", "indian"],
    "korea": ["korea", "korean"],
    "indonesia": ["indonesia", "indonesian"],
    "vietnam": ["vietnam", "vietnamese"],
    "thailand": ["thailand", "thai"],
    "africa": ["africa", "african"],
    "nigeria": ["nigeria", "nigerian"],
    "kenya": ["kenya", "kenyan"],
    "egypt": ["egypt", "egyptian"],
    "south_africa": ["south africa"],
    "ethiopia": ["ethiopia", "ethiopian"],
    "ghana": ["ghana", "ghanaian"],
    "region": ["region", "country", "state", "province", "territory", "county", "continent", "area"],
    "city": ["city", "town", "capital", "municipality", "metropolis", "urban"],
    # -- sports --
    "olympics": ["olympics", "olympic", "games", "beijing olympics", "medal", "gold medal", "athlete"],
    "football": ["football", "soccer", "fifa", "world cup", "league", "goal", "striker"],
    "sport": ["sport", "sports", "tournament", "championship", "match", "team", "season", "score"],
    # -- climate / environment --
    "climate_change": ["climate change", "global warming", "greenhouse", "emission", "carbon", "co2"],
    "weather": ["weather", "temperature", "precipitation", "rainfall", "drought", "heatwave", "storm"],
    "environment": ["environment", "environmental", "ecology", "pollution", "sustainability", "renewable"],
    "energy": ["energy", "electricity", "power", "solar", "wind", "fossil", "coal", "gas", "nuclear"],
    # -- economy / finance --
    "economy": ["economy", "economic", "gdp", "gross domestic product", "inflation", "recession", "growth"],
    "finance": ["finance", "financial", "bank", "investment", "stock", "bond", "market", "revenue", "profit"],
    "trade": ["trade", "export", "import", "tariff", "commerce", "shipment"],
    "employment": ["employment", "unemployment", "jobs", "labor", "labour", "workforce", "salary", "wage"],
    # -- astronomy --
    "moon": ["moon", "lunar", "phases of the moon", "crescent", "full moon", "eclipse"],
    "astronomy": ["astronomy", "planet", "star", "galaxy", "telescope", "orbit", "nasa", "space"],
    # -- transport --
    "transport": ["transport", "transportation", "traffic", "vehicle", "car", "railway", "train",
                  "airport", "flight", "aviation", "highway"],
    # -- food / agriculture --
    "agriculture": ["agriculture", "farming", "crop", "harvest", "wheat", "corn", "rice", "livestock"],
    "food": ["food", "nutrition", "diet", "calorie", "cuisine", "meal", "ingredient"],
    # -- technology --
    "technology": ["technology", "software", "computer", "internet", "digital", "ai",
                   "artificial intelligence", "data", "algorithm"],
    "telecom": ["telecom", "broadband", "mobile", "smartphone", "network", "5g"],
    # -- politics / society --
    "politics": ["politics", "election", "parliament", "government", "policy", "vote", "referendum"],
    "population": ["population", "census", "demographic", "inhabitants", "migration", "birth rate"],
    "education": ["education", "school", "university", "student", "literacy", "enrollment", "tuition"],
    # -- culture --
    "music": ["music", "album", "song", "band", "concert", "singer", "billboard"],
    "film": ["film", "movie", "cinema", "oscar", "box office", "director", "actor"],
    "history": ["history", "historical", "ancient", "medieval", "empire", "war", "battle", "treaty"],
    # -- time --
    "year_2020": ["2020"],
    "year_2021": ["2021"],
    "date": ["date", "year", "month", "day", "period", "quarter", "annual"],
}

_BROADER_EDGES: list[tuple[str, str]] = [
    ("covid_vaccine", "vaccine"),
    ("covid_vaccine", "covid"),
    ("immunogen", "vaccine"),
    ("covid", "disease"),
    ("vaccine", "medicine"),
    ("symptom", "disease"),
    ("hospital", "medicine"),
    ("europe", "region"),
    ("north_america", "region"),
    ("asia", "region"),
    ("africa", "region"),
    ("city", "region"),
    ("germany", "europe"),
    ("france", "europe"),
    ("spain", "europe"),
    ("italy", "europe"),
    ("netherlands", "europe"),
    ("poland", "europe"),
    ("sweden", "europe"),
    ("ireland", "europe"),
    ("portugal", "europe"),
    ("greece", "europe"),
    ("austria", "europe"),
    ("belgium", "europe"),
    ("denmark", "europe"),
    ("finland", "europe"),
    ("usa", "north_america"),
    ("canada", "north_america"),
    ("mexico", "north_america"),
    ("california", "usa"),
    ("texas", "usa"),
    ("florida", "usa"),
    ("new_york", "usa"),
    ("china", "asia"),
    ("japan", "asia"),
    ("india", "asia"),
    ("korea", "asia"),
    ("indonesia", "asia"),
    ("vietnam", "asia"),
    ("thailand", "asia"),
    ("nigeria", "africa"),
    ("kenya", "africa"),
    ("egypt", "africa"),
    ("south_africa", "africa"),
    ("ethiopia", "africa"),
    ("ghana", "africa"),
    ("olympics", "sport"),
    ("football", "sport"),
    ("climate_change", "environment"),
    ("weather", "environment"),
    ("energy", "environment"),
    ("finance", "economy"),
    ("trade", "economy"),
    ("employment", "economy"),
    ("moon", "astronomy"),
    ("telecom", "technology"),
    ("population", "politics"),
    ("music", "film"),
]


def default_lexicon() -> ConceptLexicon:
    """Build the built-in concept lexicon used across the library.

    Returns a fresh instance each call so callers may mutate their copy
    without affecting others.
    """
    lexicon = ConceptLexicon()
    for concept, terms in _CONCEPT_GROUPS.items():
        lexicon.add_concept(concept, terms)
    for concept, broader in _BROADER_EDGES:
        lexicon.add_broader(concept, broader)
    return lexicon
