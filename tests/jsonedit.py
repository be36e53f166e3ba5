"""One way for the tests to edit a JSON document at a path."""

import copy

DROP = object()   # as an edit's value: delete the key or list item


def edited(doc, path, value):
    """A copy of ``doc`` with the place at ``path`` (keys and list indexes
    from the root; ``()`` is the whole document) set to ``value``. ``DROP``
    deletes the place, and a callable value is called with the old one and
    sets what it returns. A key that is not there is added."""
    doc = copy.deepcopy(doc)
    if not path:
        return value(doc) if callable(value) else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value(parent[path[-1]]) if callable(value) else value
    return doc
