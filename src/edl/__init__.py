"""Spectral laboratory for a model singular Dirac operator on S^1 x R^2.

The package decomposes into the circle-side spectral toolbox (series), the
model operator and its radial mode problems (dirac), obstruction pairings and
decay experiments (obstruction), the induced deformation operators on the
singular circle (deform), first variation of the operator under ambient metric
pullback (bgvar), a smoothed Newton iteration with tame estimates (newton),
and a command line driver (cli). The package root exports nothing: import
from the submodules.
"""
