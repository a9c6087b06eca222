"""Ops that only the tests need: the reduction the gradcheck tests sum their outputs with."""

import numpy as np

import bpcse.diffcore as dc


def tsum(x, axis=None):
    """Sum over ``axis`` or all elements, as one ``sum`` node with its backward."""
    x = dc._lift(x)
    data = x.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            dc._accum(x, np.full(x.shape, g))
        else:
            dc._accum(x, np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return dc._node(data, (x,), backward, "sum")
