"""Chebyshev graph convolution networks: import from gcn.layers,
gcn.train and gcn.selection."""
