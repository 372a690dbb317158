"""Fixture: a run-cache fingerprint list with seeded FPR violations.

The package root is itself a lazy hub whose one export comes from
another hub, ``hub``: ``from fprpkg import fast`` reaches
``hub/fast.py`` through both."""


def __getattr__(name):
    if name == "fast":
        from .hub import fast
        return fast
    raise AttributeError(name)
