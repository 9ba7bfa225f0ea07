"""The public API holds each fact once: a function that takes a stream reads
the feasible set from ``stream.constraint`` instead of taking it again."""

import inspect

import domfw


def public_signatures():
    """Signature of every callable ``domfw`` exports, plus the methods and
    constructors of the exported classes."""
    for name, obj in vars(domfw).items():
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        yield name, inspect.signature(obj)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", inspect.signature(member)


def test_no_signature_takes_both_a_stream_and_a_set():
    signatures = dict(public_signatures())
    assert {"run", "run_round", "inner_steps", "RoundOptimizer", "RoundOptimizer.__init__",
            "regret_upper_bound", "problem_constants", "generate_stream"} <= set(signatures)
    both = [name for name, sig in signatures.items() if {"stream", "spec"} <= set(sig.parameters)]
    assert both == []


def test_generate_stream_takes_the_dimension_from_the_set():
    assert "d" not in inspect.signature(domfw.generate_stream).parameters
