"""Deterministic synthetic corpora for exercising the harness.

Everything here is seeded: the same arguments always produce the same
corpus, byte for byte under the canonical writer.  Texts are nonsense but
structurally realistic: section headings, claims, bilingual coverage, topic
clusters that give citation pairs real lexical overlap.
"""

from __future__ import annotations

import random
from datetime import date, timedelta

from .corpus import CitationRecord, Corpus, PatentDocument
from .dataset import largest_remainder

DEFAULT_REFERENCE_DATE = date(2020, 6, 15)
# synthetic_corpus: jurisdiction shares (CN documents are Chinese, the rest
# English), topic clusters, and the share of documents filed 11-15 years
# before the reference date, outside the default recency window.
JURISDICTION_MIX = {"CN": 0.5, "US": 0.2, "EP": 0.2, "WO": 0.1}
N_CLUSTERS = 20
OLD_FRACTION = 0.1
# near_copy_corpus: unrelated documents added beside the planted pairs.
N_DISTRACTORS = 60

EN_VOCAB = (
    "actuator adapter algorithm amplifier antenna array battery bearing bracket "
    "buffer bus cache calibration capacitor cartridge catalyst cell chamber "
    "channel circuit clamp coating compressor conduit connector controller "
    "converter coolant coupling damper decoder detector diaphragm diffuser "
    "diode dispenser electrode emitter encoder enclosure fastener filter "
    "firmware flange gasket gateway gearbox generator gyroscope harness heater "
    "housing hub impeller inductor injector insulator interface inverter "
    "junction laminate latch lattice ledger lens manifold membrane microphone "
    "modulator module motor mount nozzle oscillator panel payload piston "
    "pivot polymer processor pump reactor receiver rectifier regulator relay "
    "resin resonator rotor router seal sensor servo shaft shroud socket "
    "solenoid spindle stator substrate switch terminal transceiver transducer "
    "transformer turbine valve vent waveguide winding"
).split()

EN_VERBS = (
    "receives transmits filters regulates couples drives monitors adjusts "
    "converts stores amplifies dampens aligns encodes isolates measures "
    "modulates routes samples stabilizes"
).split()

ZH_VOCAB = (
    "电池 控制 模块 数据 处理 系统 方法 装置 信号 网络 传感 器件 电路 芯片 存储 "
    "单元 检测 算法 图像 通信 电机 驱动 轴承 阀门 泵体 压缩 冷却 加热 涂层 基板 "
    "天线 滤波 编码 解码 转换 调节 联轴 外壳 支架 密封"
).split()

_EN_HEADINGS = ("BACKGROUND", "SUMMARY", "DETAILED DESCRIPTION")
_ZH_HEADINGS = ("背景技术", "发明内容", "具体实施方式")


def _en_sentence(rng: random.Random, pool: list[str]) -> str:
    subject = rng.choice(pool)
    verb = rng.choice(EN_VERBS)
    obj = rng.choice(pool)
    tail = rng.choice(pool)
    return f"The {subject} {verb} the {obj} through the {tail}."


def _zh_sentence(rng: random.Random, pool: list[str]) -> str:
    words = [rng.choice(pool) for _ in range(rng.randint(4, 7))]
    return "所述" + "".join(words) + "。"


def _sentence(rng: random.Random, pool: list[str], language: str) -> str:
    return _zh_sentence(rng, pool) if language == "zh" else _en_sentence(rng, pool)


def _description(rng: random.Random, pool: list[str], language: str) -> str:
    headings = _ZH_HEADINGS if language == "zh" else _EN_HEADINGS
    counts = (rng.randint(2, 4), rng.randint(1, 2), rng.randint(4, 8))
    parts = []
    for heading, n in zip(headings, counts):
        body = " ".join(_sentence(rng, pool, language) for _ in range(n))
        parts.append(f"{heading}\n{body}")
    return "\n\n".join(parts)


def _claims(rng: random.Random, pool: list[str], language: str) -> str:
    if language == "zh":
        return "1. 一种" + "".join(rng.choice(pool) for _ in range(3)) + "装置。 " + _zh_sentence(rng, pool)
    head = rng.choice(pool)
    items = ", ".join(f"a {rng.choice(pool)}" for _ in range(rng.randint(2, 4)))
    return f"1. A {head} comprising {items}. 2. {_en_sentence(rng, pool)}"


def _mutate(rng: random.Random, text: str, pool: list[str], n_edits: int) -> str:
    """Near-copy: swap a handful of words and append one sentence.

    Edits stay small so character 3-gram similarity to the original remains
    well above the family alignment threshold.
    """
    words = text.split(" ")
    for _ in range(n_edits):
        i = rng.randrange(len(words))
        if words[i] in _EN_HEADINGS or words[i] in _ZH_HEADINGS:
            continue
        words[i] = rng.choice(pool)
    return " ".join(words) + " " + _en_sentence(rng, pool)


def synthetic_corpus(n_docs: int = 200, seed: int = 0) -> Corpus:
    """A mixed-jurisdiction corpus with families, citations, and headings.

    Jurisdictions follow :data:`JURISDICTION_MIX` (50% CN / 20% US / 20% EP /
    10% WO) with Chinese text for CN and English elsewhere.  Some families
    are same-language near-copies (high alignment), some cross-language
    translations (low alignment).  Roughly 45% of documents carry examiner
    X citations into their topic cluster.
    """
    rng = random.Random(seed)
    alloc = largest_remainder(JURISDICTION_MIX, n_docs)
    jurisdictions: list[str] = []
    for jur in sorted(alloc):
        jurisdictions.extend([jur] * alloc[jur])
    rng.shuffle(jurisdictions)

    cluster_pools = {
        "en": [rng.sample(EN_VOCAB, 14) for _ in range(N_CLUSTERS)],
        "zh": [rng.sample(ZH_VOCAB, 12) for _ in range(N_CLUSTERS)],
    }
    sections = "GHABCF"
    section_weights = (30, 25, 10, 10, 10, 15)

    # Each document's PatentDocument fields other than its texts.  Document i
    # is in topic cluster i % N_CLUSTERS.
    specs: list[dict] = []
    for i, jur in enumerate(jurisdictions):
        section = rng.choices(sections, weights=section_weights)[0]
        ipc = f"{section}{rng.randint(1, 99):02d}{rng.choice('BFKLMN')} {rng.randint(1, 99)}/{rng.randint(0, 99):02d}"
        if rng.random() < OLD_FRACTION:
            filing = DEFAULT_REFERENCE_DATE - timedelta(days=rng.randint(4000, 5400))
        else:
            filing = DEFAULT_REFERENCE_DATE - timedelta(days=rng.randint(30, 3600))
        specs.append(
            {
                "doc_id": f"{jur}{100000 + i}A",
                "jurisdiction": jur,
                "language": "zh" if jur == "CN" else "en",
                "ipc_codes": (ipc,),
                "filing_date": filing,
            }
        )
    pools = [cluster_pools[spec["language"]][i % N_CLUSTERS] for i, spec in enumerate(specs)]

    # Families, as index pairs in family-id order: same-language pairs are
    # near-copies, cross-language pairs are independent texts sharing only a
    # family id.
    families: list[tuple[int, int]] = []

    def unpaired(language: str) -> list[int]:
        paired = {i for family in families for i in family}
        return [
            i for i, spec in enumerate(specs) if spec["language"] == language and i not in paired
        ]

    for language, quota in (("en", 8), ("zh", 5)):
        pool = unpaired(language)
        rng.shuffle(pool)
        for _ in range(quota):
            if len(pool) < 2:
                break
            families.append((pool.pop(), pool.pop()))
    # Only same-language pairs so far: member b's texts copy those of a.
    copies = {b: a for a, b in families}
    for _ in range(5):
        en_pool, zh_pool = unpaired("en"), unpaired("zh")
        if not en_pool or not zh_pool:
            break
        families.append((rng.choice(en_pool), rng.choice(zh_pool)))
    family_of = {i: f"F{number:04d}" for number, family in enumerate(families, 1) for i in family}

    texts: list[dict[str, str]] = []
    for spec, pool in zip(specs, pools):
        texts.append(
            {
                "title": " ".join(rng.choice(pool) for _ in range(3)),
                "abstract": _sentence(rng, pool, spec["language"]),
                "claims": _claims(rng, pool, spec["language"]),
                "description": _description(rng, pool, spec["language"]),
            }
        )
    for member, origin in sorted(copies.items()):
        description = _mutate(rng, texts[origin]["description"], pools[member], n_edits=2)
        texts[member] = {**texts[origin], "description": description}

    documents = {}
    for i, spec in enumerate(specs):
        documents[spec["doc_id"]] = PatentDocument(
            **spec, family_id=family_of.get(i, ""), **texts[i]
        )

    citations: list[CitationRecord] = []
    for i, spec in enumerate(specs):
        if rng.random() >= 0.45:
            continue
        family = family_of.get(i)
        peers = [
            j
            for j in range(i % N_CLUSTERS, n_docs, N_CLUSTERS)
            if j != i and (family is None or family_of.get(j) != family)
        ]
        if not peers:
            continue
        n_x = min(len(peers), rng.randint(1, 3))
        targets = rng.sample(peers, n_x)
        for j in targets:
            citations.append(
                CitationRecord(
                    citing_id=spec["doc_id"],
                    cited_id=specs[j]["doc_id"],
                    category="X",
                )
            )
        rest = [j for j in peers if j not in targets]
        for j in rng.sample(rest, min(len(rest), rng.randint(0, 2))):
            citations.append(
                CitationRecord(
                    citing_id=spec["doc_id"],
                    cited_id=specs[j]["doc_id"],
                    category=rng.choice("YA"),
                )
            )

    return Corpus(
        documents=documents,
        citations=tuple(citations),
        reference_date=DEFAULT_REFERENCE_DATE,
    )


def near_copy_corpus(n_queries: int = 50, seed: int = 0) -> tuple[Corpus, dict[str, set[str]]]:
    """English US corpus where each query's relevant document is a lexical
    near-copy of the query patent, beside :data:`N_DISTRACTORS` unrelated
    documents.  Returns the corpus and the planted query -> relevant mapping
    (also present as examiner X citations)."""
    rng = random.Random(seed)
    documents: dict[str, PatentDocument] = {}
    citations: list[CitationRecord] = []
    planted: dict[str, set[str]] = {}

    def make_doc(doc_id: str, pool: list[str], description: str, claims: str) -> PatentDocument:
        return PatentDocument(
            doc_id=doc_id,
            jurisdiction="US",
            language="en",
            ipc_codes=(f"G{rng.randint(1, 99):02d}F {rng.randint(1, 99)}/{rng.randint(0, 99):02d}",),
            filing_date=DEFAULT_REFERENCE_DATE - timedelta(days=rng.randint(30, 3000)),
            family_id="",
            title=" ".join(rng.choice(pool) for _ in range(3)),
            abstract=_en_sentence(rng, pool),
            claims=claims,
            description=description,
        )

    for q in range(n_queries):
        pool = rng.sample(EN_VOCAB, 12)
        qid = f"US{500000 + q}A"
        rid = f"US{600000 + q}A"
        description = _description(rng, pool, "en")
        claims = _claims(rng, pool, "en")
        documents[qid] = make_doc(qid, pool, description, claims)
        documents[rid] = make_doc(rid, pool, _mutate(rng, description, pool, n_edits=2), claims)
        citations.append(CitationRecord(citing_id=qid, cited_id=rid, category="X"))
        planted[qid] = {rid}
    for d in range(N_DISTRACTORS):
        pool = rng.sample(EN_VOCAB, 12)
        did = f"US{700000 + d}A"
        documents[did] = make_doc(did, pool, _description(rng, pool, "en"), _claims(rng, pool, "en"))

    corpus = Corpus(
        documents=documents, citations=tuple(citations), reference_date=DEFAULT_REFERENCE_DATE
    )
    return corpus, planted

