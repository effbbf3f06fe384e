"""The paper-reproduction library: `solve` never calls it.

The paper's extremal constructions and the search layers that only they
use: the min-degree+2 solver and leaf completion, the high-leaf-degree,
dense, long-guest (preserving paths), medium-diameter and small-diameter
engines, annotated hitting subtree containment (`ahsc`) and the colour
coding it searches with, and the lemmas, rooted tree views and errors
they share (`lemmas`).  Tests and the acceptance criteria run these modules
directly.  The package imports the core (`treefit.graph`, `trees`,
`embedding`, the exact search in `color_coding`, ...); no core module
imports it.
"""
