"""The stacked degree-column route, wrapped for tests that look at one set
or a few: columns builds a certified stack, one runs a count on the
one-row stack of a single column."""

from fqlab.euclid import certified_columns, set_transforms
from oracles import vertex_array


def columns(G, T, sets):
    """(deg, members): the certified (len(sets), n) degree-column stack of
    the vertex sets against T, a sphere transform of G in class_transform's
    layout, and each set's sorted vertex array."""
    members = [vertex_array(G.n, B) for B in sets]
    hats = set_transforms(G.field.p, G.dim, members)
    return certified_columns(G, T, hats, [m.size for m in members]), members


def one(count, deg, *sets):
    """count on the one-row stack of the degree column deg, each set given
    as its sorted vertex array; returns the row's result."""
    return count(deg[None], *([vertex_array(deg.size, S)] for S in sets))[0]
