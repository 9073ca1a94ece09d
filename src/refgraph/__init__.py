"""refgraph: build, partition, and characterize method-level refactoring graphs.

Vertices are fully qualified method signatures; directed edges are detected
refactoring operations (rename, move, extract, inline, ...) carrying commit
metadata.  The library splits the graph of a project history into weakly
connected subgraphs and measures their size, commit span, age, refactoring
composition, and developer count.

Importing the package loads none of its modules: import each public name
from the module that defines it (``refgraph.ingest``, ``.history``,
``.graph``, ``.metrics`` or ``.report``); the command line is ``.cli``.
"""

__version__ = "0.1.0"
