"""F5 — Fig. 5: decision tree over the defining label features.

Paper: a simple tree separates the manually annotated patterns with only
4 of 151 projects misclassified.
"""

from repro.mining.decision_tree import DecisionTree
from repro.report.render import render_tree
from repro.engine.study_plan import tree_sample

from benchmarks.conftest import record


def _fit(records):
    samples = [tree_sample(r) for r in records]
    labels = [r.pattern.value for r in records]
    tree = DecisionTree(max_depth=4).fit(samples, labels)
    return tree, tree.training_errors(samples, labels)


def test_fig5_decision_tree(benchmark, records, study):
    tree, errors = benchmark(_fit, records)
    # Paper shape: a handful (4/151) misclassified, nothing more.
    assert len(errors) <= 6
    assert tree.root.depth() <= 4
    record("fig5_decision_tree", render_tree(study))
