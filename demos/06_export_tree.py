"""Fit a small pricing tree and render it as JSON and Graphviz DOT."""

from sptlab import (FitConfig, export_tree, fit_gbt, fit_spt, generate,
                    make_spec, percentile_grid, probability_matrix,
                    revenue_matrix, tree_from_json)

spec = make_spec(3, 0)
train = generate(spec, 2000, 0)
grid = percentile_grid(train.prices)
teacher = fit_gbt(train)
revmat = revenue_matrix(probability_matrix(teacher, train.features, grid), grid)
tree = fit_spt(train.features, revmat, FitConfig(max_depth=2),
               train.feature_names)

text = export_tree(tree, "json")
assert export_tree(tree_from_json(text), "json") == text  # lossless
print(text)
print()
print(export_tree(tree, "dot"))
