"""Exact arithmetic over F_q and F_q[t], point counting in P^n(F_q(t)),
degree-2 point counts by height, 0-cycle generating functions, Peyre
constants, and asymptotic lemma checks, with a command-line front end
(`hilbcount`) that prints each result as a CSV table."""

__version__ = "0.1.0"
