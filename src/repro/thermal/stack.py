"""Layered 2.5D package stack description.

The default stack mirrors the secondary-free HotSpot package for a 2.5D
assembly, bottom to top::

    [board boundary]            (optional convective path, weak)
    interposer   Si    0.10 mm
    bonding      solder 0.07 mm  (C4/microbump + underfill, effective k)
    chiplets     Si    0.70 mm   <- power injected here
    tim          grease 0.05 mm
    spreader     Cu    1.00 mm
    sink         Al    6.90 mm
    [ambient boundary]          (convective path, strong)

Inside the interposer core every layer is homogeneous, the chiplet
layer included: as in HotSpot, only its power map follows the placement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.thermal.materials import MATERIALS, Material

__all__ = ["Layer", "LayerStack", "default_chiplet_stack"]


@dataclass(frozen=True)
class Layer:
    """One slab of the vertical stack.

    Attributes
    ----------
    name:
        Identifier, unique within a stack.
    material:
        Bulk material (inside the interposer core).
    thickness:
        Slab thickness in mm.
    is_chiplet_layer:
        True for the layer into which chiplet power is injected.
    periphery_material:
        Material of this layer *outside* the interposer core region (the
        package margin where the spreader/sink overhang); ``None`` means
        the layer's bulk material extends to the package edge.
    """

    name: str
    material: Material
    thickness: float
    is_chiplet_layer: bool = False
    periphery_material: Material | None = None

    def __post_init__(self) -> None:
        if self.thickness <= 0:
            raise ValueError(f"layer {self.name!r} needs positive thickness")


@dataclass(frozen=True)
class LayerStack:
    """Ordered bottom-to-top collection of layers."""

    layers: tuple

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("stack needs at least one layer")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate layer names")
        if sum(layer.is_chiplet_layer for layer in self.layers) != 1:
            raise ValueError("stack needs exactly one chiplet layer")

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def chiplet_layer_index(self) -> int:
        """Index of the power-injection layer."""
        for i, layer in enumerate(self.layers):
            if layer.is_chiplet_layer:
                return i
        raise AssertionError("validated stack lost its chiplet layer")


def default_chiplet_stack() -> LayerStack:
    """The default 2.5D package stack described in the module docstring.

    The spreader and sink extend over the whole package area; the
    interposer-level layers turn into organic substrate / molding
    compound beyond the interposer core.
    """
    return LayerStack(
        layers=(
            Layer(
                "interposer",
                MATERIALS["silicon"],
                0.10,
                periphery_material=MATERIALS["fr4"],
            ),
            Layer(
                "bonding",
                MATERIALS["solder"],
                0.07,
                periphery_material=MATERIALS["underfill"],
            ),
            Layer(
                "chiplets",
                MATERIALS["silicon"],
                0.70,
                is_chiplet_layer=True,
                periphery_material=MATERIALS["underfill"],
            ),
            Layer("tim", MATERIALS["tim"], 0.05),
            Layer("spreader", MATERIALS["copper"], 1.00),
            Layer("sink", MATERIALS["aluminum"], 6.90),
        )
    )
