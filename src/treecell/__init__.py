"""Evolving gated recurrent cells encoded as trees.

Genomes are trees over add/mul/tanh/sigmoid/relu with eight base inputs
and two native memory cells; genetic programming with speciation and a
stagnation archive searches the node space, compiled cells train as
recurrent networks, and a learning-curve predictor stands in for full
training during evolution.
"""
