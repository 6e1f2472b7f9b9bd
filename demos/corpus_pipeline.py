"""End-to-end corpus workflow: generate, split, train, evaluate, round-trip.

The same flow is available from the command line:

    qdetect train    --data train.txt --strategy pgm --out model.json
    qdetect predict  --model model.json --data test.txt --out preds.tsv
    qdetect evaluate --model model.json --data test.txt --out report.json
"""

import tempfile
from pathlib import Path

from qdetect import (
    SplitSpec,
    evaluate,
    load_model,
    parse_sparse,
    save_model,
    serialize_sparse,
    split,
    synth_corpus,
    train_one_vs_rest,
    train_pgm,
)

# --- a noisy four-class corpus with disjoint feature blocks ------------------
corpus = synth_corpus("orthogonal", docs_per_class=25, noise_rate=0.25, seed=2024)
print("corpus:", len(corpus), "documents,", corpus.dim, "features,",
      len(corpus.class_index), "classes")
print("first line of the sparse serialization:")
print(" ", serialize_sparse(corpus).splitlines()[0])

train_ds, test_ds = split(corpus, SplitSpec(train_fraction=0.8, seed=7, stratified=True))
print("split:", len(train_ds), "train /", len(test_ds), "test (stratified, seeded)")

# --- train both multi-class strategies and compare ---------------------------
for name, trainer in (("square-root measurement", train_pgm),
                      ("one-vs-rest detectors", train_one_vs_rest)):
    model = trainer(train_ds, train_ds.dim)
    report = evaluate(model, test_ds)
    print(f"\n{name}")
    print("  accuracy:", round(report.accuracy, 4),
          " empirical zero-one cost:", round(report.empirical_cost, 4))
    print("  macro F1:", round(report.macro_f1, 4),
          " degenerate documents:", report.degenerate_count)
    print("  confusion (rows = true):")
    for label, row in zip(report.labels, report.confusion):
        print(f"    {label:>7}", [int(x) for x in row])

# --- models and datasets survive serialization exactly -----------------------
model = train_pgm(train_ds, train_ds.dim)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    same = all(
        a.tobytes() == b.tobytes()
        for a, b in zip(loaded.measurement.elements, model.measurement.elements)
    )
    print("\nmodel JSON round trip bit-identical:", same)

    text = serialize_sparse(corpus)
    again = parse_sparse(text.splitlines())
    print("dataset parse/serialize identity:",
          all(d1.entries == d2.entries and l1 == l2
              for (l1, d1), (l2, d2) in zip(corpus.documents, again.documents)))
