"""knotbound: braid-closure knot invariants and braid-index bounds."""
