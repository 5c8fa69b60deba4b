"""Scenario record serialization and validation."""

import dataclasses
import json

import pytest

from steamfleet.config import (ConfigError, default_config, from_json,
                               to_json, validate_config)

BASE = default_config()


def test_json_round_trip_is_identity():
    assert from_json(to_json(BASE)) == BASE


def test_round_trip_keeps_modified_fields():
    cfg = dataclasses.replace(
        BASE,
        demand=((0.0, 1.5), (900.0, 2.5)),
        share=dataclasses.replace(BASE.share, min_headroom=0.25),
        vw_frac=0.4)
    back = from_json(to_json(cfg))
    assert back == cfg
    assert back.share.min_headroom == 0.25


def test_rejects_unknown_version():
    # version 1 documents still carry the unread top-level seed
    for version in (99, 1):
        doc = json.loads(to_json(BASE))
        doc["version"] = version
        with pytest.raises(ConfigError, match="version 2"):
            from_json(json.dumps(doc))


def test_rejects_non_json():
    with pytest.raises(ConfigError, match="JSON"):
        from_json("{nope")


def test_validate_flags_bad_entries():
    bad_eta = dataclasses.replace(
        BASE, boilers=(dataclasses.replace(BASE.boilers[0], eta=1.5),)
        + BASE.boilers[1:])
    assert any("efficiency" in s for s in validate_config(bad_eta))
    # boilers are numbered from 1, as in every other message
    fifth = dataclasses.replace(
        BASE, boilers=BASE.boilers[:4]
        + (dataclasses.replace(BASE.boilers[4], eta=1.5),))
    assert "boiler 5: efficiency outside (0, 1]" in validate_config(fifth)

    ragged = dataclasses.replace(
        BASE, timing=dataclasses.replace(BASE.timing, tau=10.0, dt=3.0))
    assert any("multiple" in s for s in validate_config(ragged))

    unsorted = dataclasses.replace(BASE, demand=((0.0, 2.0), (0.0, 2.1)))
    assert any("increase" in s for s in validate_config(unsorted))

    short = dataclasses.replace(
        BASE, mpc=dataclasses.replace(BASE.mpc, horizon=1))
    assert any("horizon" in s for s in validate_config(short))

    assert validate_config(BASE) == []
