"""Report serialization: the compact ``report_to_json`` text is exactly
``json.dumps`` of ``report_to_dict`` with compact separators."""

import dataclasses
import json

import pytest

from visioncost.arch import DTYPES, EvalConfig, FlopConvention
from visioncost.cost import cost_report, report_to_dict, report_to_json
from visioncost.presets import PRESETS, vit_small

ODD_NAME = 'a"quote\\backé☃'

SPECS = {name: entry.build() for name, entry in sorted(PRESETS.items())}
SPECS.update(
    {f"vit_small_depth{d}": dataclasses.replace(vit_small(), depth=d) for d in (0, 1)}
)
SPECS["odd_name"] = dataclasses.replace(vit_small(), name=ODD_NAME, depth=1)


def compact(report):
    return json.dumps(report_to_dict(report), separators=(",", ":"))


@pytest.mark.parametrize("convention", list(FlopConvention))
@pytest.mark.parametrize("name", sorted(SPECS))
def test_compact_json_equals_json_dumps_of_the_dict(name, convention):
    spec = SPECS[name]
    resolution = PRESETS[name].default_eval.input_resolution if name in PRESETS else None
    for dtype in sorted(DTYPES):
        for batch in (1, 3):
            cfg = EvalConfig(
                batch_size=batch,
                dtype=DTYPES[dtype],
                input_resolution=resolution,
                flop_convention=convention,
            )
            report = cost_report(spec, cfg)
            assert report_to_json(report, indent=None) == compact(report)


def test_escapes_layer_names_like_the_encoder():
    report = cost_report(SPECS["odd_name"], EvalConfig())
    rows = tuple(
        row._replace(name=f"{ODD_NAME}/{i}\n\t\x00") for i, row in enumerate(report.per_layer)
    )
    report = dataclasses.replace(report, per_layer=rows)
    text = report_to_json(report, indent=None)
    assert text == compact(report)
    assert text.isascii()
    assert json.loads(text)["per_layer"][0]["name"] == f"{ODD_NAME}/0\n\t\x00"


def test_indented_json_is_unchanged():
    report = cost_report(SPECS["resnet50"], EvalConfig())
    assert report_to_json(report) == json.dumps(report_to_dict(report), indent=2)
