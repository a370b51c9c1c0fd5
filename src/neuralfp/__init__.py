"""Neural network OS fingerprinting from classic signature databases.

The pipeline: parse first-generation fingerprint signatures, synthesize
Monte Carlo training corpora from their constraint grammar, reduce the
568-neuron observation encoding by correlation elimination and PCA,
train a hierarchy of tanh perceptrons (relevance, OS family, version),
and refine Windows verdicts from DCE-RPC endpoint dumps.  Each name is
imported from its module, such as `neuralfp.hierarchy.train_hierarchy`.
"""

__version__ = "0.1.0"
