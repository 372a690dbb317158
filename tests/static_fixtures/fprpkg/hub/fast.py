"""Reached through the hubs' ``fast`` export: listed, no finding."""


def fast(value):
    return value
