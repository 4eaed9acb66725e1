"""The checks of the verify suites, one module per suite.

Module `suites.<suite>` holds the checks of the `verify.REGISTRY` rows of
that suite, the identity functions they call and the other routes they
compare with.  verify.py imports a suite module when one of its rows
first runs, so a job compiles only the suites it runs and each suite
only the domain modules its checks use.
"""
