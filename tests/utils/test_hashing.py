"""Tests for the canonical hashing layer behind the result store."""

import functools

import numpy as np
import pytest

from repro.core.config import SaiyanMode
from repro.sim.scenario import ArqSpec
from repro.sim.waveform_engine import ReceiverSpec
from repro.utils.hashing import (
    UncacheableError,
    canonical_json,
    canonicalize,
    digest_of,
    source_fingerprint,
)


def _helper_function(x):
    return x + 1


def _other_function(x):
    return x + 2


class TestCanonicalize:
    def test_primitives_pass_through(self):
        for value in (None, True, False, 0, -3, "text", 1.5):
            assert canonicalize(value) == value

    def test_numpy_scalars_normalise_to_python(self):
        assert canonicalize(np.int64(7)) == 7
        assert canonicalize(np.float64(2.5)) == 2.5
        assert canonicalize(np.bool_(True)) == 1

    def test_enum_is_tagged_with_class(self):
        encoded = canonicalize(SaiyanMode.SUPER)
        assert encoded["__enum__"] == "SaiyanMode"
        assert encoded["value"] == SaiyanMode.SUPER.value

    def test_int_enum_does_not_alias_its_plain_value(self):
        import enum

        class Knob(enum.IntEnum):
            LOW = 1

        # An IntEnum member is an int; it must still encode tagged, or a
        # member and its literal value would share a digest.
        assert canonical_json(Knob.LOW) != canonical_json(1)
        assert canonicalize(Knob.LOW)["__enum__"] == "TestCanonicalize.test_int_enum_does_not_alias_its_plain_value.<locals>.Knob"

    def test_dataclass_is_tagged_with_class(self):
        encoded = canonicalize(ArqSpec(max_retransmissions=2))
        assert encoded["__dataclass__"] == "ArqSpec"
        assert encoded["fields"] == {"max_retransmissions": 2}

    def test_nested_spec_roundtrips_equal_strings(self):
        spec = ReceiverSpec(kind="saiyan", mode=SaiyanMode.VANILLA,
                            sampling_safety_factor=2.5)
        assert canonical_json(spec) == canonical_json(
            ReceiverSpec(kind="saiyan", mode=SaiyanMode.VANILLA,
                         sampling_safety_factor=2.5))

    def test_mapping_order_does_not_matter(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_sets_are_ordered(self):
        assert canonicalize({3, 1, 2}) == [1, 2, 3]

    def test_ndarray_keeps_dtype_and_shape(self):
        encoded = canonicalize(np.arange(6, dtype=np.int64).reshape(2, 3))
        assert encoded["__ndarray__"] == "int64"
        assert encoded["shape"] == [2, 3]
        assert encoded["data"] == [0, 1, 2, 3, 4, 5]

    def test_callable_is_uncacheable(self):
        with pytest.raises(UncacheableError):
            canonicalize(lambda: None)

    def test_nan_is_uncacheable(self):
        with pytest.raises(UncacheableError):
            canonicalize(float("nan"))

    def test_non_string_mapping_keys_are_uncacheable(self):
        with pytest.raises(UncacheableError):
            canonicalize({1: "x"})

    def test_arbitrary_objects_are_uncacheable(self):
        with pytest.raises(UncacheableError):
            canonicalize(object())


class TestDigest:
    def test_digest_is_stable(self):
        key = {"kind": "test", "seed": 7, "spec": ArqSpec()}
        assert digest_of(key) == digest_of(dict(reversed(list(key.items()))))

    def test_digest_changes_with_any_field(self):
        base = {"kind": "test", "seed": 7}
        assert digest_of(base) != digest_of({"kind": "test", "seed": 8})
        assert digest_of(base) != digest_of({"kind": "other", "seed": 7})

    def test_int_and_float_values_are_distinct(self):
        # json distinguishes 7 from 7.0; a seed and a threshold must not
        # alias just because they compare equal numerically.
        assert digest_of({"x": 7}) != digest_of({"x": 7.0})


class TestSourceFingerprint:
    def test_stable_across_calls(self):
        assert source_fingerprint(_helper_function) == source_fingerprint(_helper_function)

    def test_distinguishes_functions(self):
        assert source_fingerprint(_helper_function) != source_fingerprint(_other_function)

    def test_partial_unwraps_to_the_function(self):
        bound = functools.partial(_helper_function, 3)
        assert source_fingerprint(bound) == source_fingerprint(_helper_function)

    def test_module_by_name_matches_module_object(self):
        import repro.sim.metrics as metrics_module

        assert source_fingerprint("repro.sim.metrics") == source_fingerprint(metrics_module)

    def test_order_matters(self):
        assert (source_fingerprint(_helper_function, _other_function)
                != source_fingerprint(_other_function, _helper_function))

    def test_no_targets_is_an_error(self):
        with pytest.raises(UncacheableError):
            source_fingerprint()

    def test_sourceless_callable_is_uncacheable(self):
        with pytest.raises(UncacheableError):
            source_fingerprint(len)
