"""Imported at module level by the cache entry point: listed."""


def run(cell):
    return cell
