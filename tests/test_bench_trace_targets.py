"""The benchmark's tracer must still find every name it patches.

``mipsbench/tracing.py`` looks each target up as ``owner.__dict__[name]``,
so a function that moves out of the module (or a method that moves to a
base class) breaks the traced benchmark run.  This installs the tracer,
checks that every target was wrapped, and that ``uninstall`` puts the
originals back.
"""
from mipsbench.tracing import _PATCHES, Tracer


def test_install_wraps_and_uninstall_restores_every_target():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _PATCHES]
    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr, orig in originals:
            assert owner.__dict__[attr] is not orig, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, orig in originals:
        assert owner.__dict__[attr] is orig, f"{owner.__name__}.{attr} not restored"
