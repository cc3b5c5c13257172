"""soliton-lab: chart-level verification of almost-soliton conformal duality.

Modules:

* :mod:`soliton_lab.autodiff` -- second-order forward-mode jets.
* :mod:`soliton_lab.chart` -- metrics, curvature, conformal-change checks.
* :mod:`soliton_lab.soliton` -- almost-soliton residuals and the duality map.
* :mod:`soliton_lab.profiles` -- the closed-form Kahler soliton profile
  family in Python floats: phi, Q, its Q-positive intervals and the named
  profile sets.
* :mod:`soliton_lab.fibernorm` -- the fiber-norm map ell(f) of a profile,
  its table and values in Python floats.
* :mod:`soliton_lab.skrp` -- the explicit 2m-dimensional Calabi chart
  assembly over CP^{m-1}, C^{m-1} or the ball.
* :mod:`soliton_lab.completeness` -- endpoint analysis of the dual metric's
  arc-length integral.
* :mod:`soliton_lab.quadpack` -- QUADPACK's QAG in pure Python.
* :mod:`soliton_lab.sampling` -- deterministic scrambled-Halton sampling of
  chart boxes.
* :mod:`soliton_lab.fixtures` -- named reference metrics, pairs, profiles.
* :mod:`soliton_lab.errors` -- the package's exception hierarchy.
* :mod:`soliton_lab.cli` -- the ``soliton-lab`` command.

Importing the package loads none of its modules; only the chart layer
(``autodiff``, ``chart``, ``soliton``, ``skrp``, ``fixtures``) imports numpy
at module level.
"""

__version__ = "0.1.0"
