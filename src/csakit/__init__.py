"""Computational toolkit for subgroup geometry in free groups, HNN
extensions and amalgams: Stallings core graphs, Britton reduction,
separation and malnormality tests, CSA classification, and bounded
falsifiers, with a presentation-driven command line front end."""

__version__ = "0.1.0"
