"""Report serialization: ``report_to_json`` text is exactly ``json.dumps``
of ``report_to_dict``, compact (``indent=None``) and indented by 2."""

import json

import pytest

from visioncost.arch import DTYPES, CnnSpec, EvalConfig, FlopConvention
from visioncost.cost import cost_report, report_to_csv, report_to_dict, report_to_json
from visioncost.presets import PRESETS, resnet50, vit_small

ODD_NAME = 'a"quote\\back\né☃'

SPECS = {name: entry.build() for name, entry in sorted(PRESETS.items())}
SPECS.update(
    {f"vit_small_depth{d}": vit_small()._replace(depth=d) for d in (0, 1)}
)
SPECS["odd_name"] = vit_small()._replace(name=ODD_NAME, depth=1)
SPECS["cnn_no_layers"] = CnnSpec(name="no_layers", input_channels=3, layers=())


def compact(report):
    return json.dumps(report_to_dict(report), separators=(",", ":"))


def indented(report):
    return json.dumps(report_to_dict(report), indent=2)


def reports(name, convention):
    """The spec's report under ``convention`` at every dtype, batch 1 and 3."""
    resolution = PRESETS[name].default_eval.input_resolution if name in PRESETS else None
    for dtype in sorted(DTYPES):
        for batch in (1, 3):
            cfg = EvalConfig(
                batch_size=batch,
                dtype=DTYPES[dtype],
                input_resolution=resolution,
                flop_convention=convention,
            )
            yield cost_report(SPECS[name], cfg)


@pytest.mark.parametrize("convention", list(FlopConvention))
@pytest.mark.parametrize("name", sorted(SPECS))
def test_compact_json_equals_json_dumps_of_the_dict(name, convention):
    for report in reports(name, convention):
        assert report_to_json(report, indent=None) == compact(report)


@pytest.mark.parametrize("convention", list(FlopConvention))
@pytest.mark.parametrize("name", sorted(SPECS))
def test_indented_json_equals_json_dumps_of_the_dict(name, convention):
    for report in reports(name, convention):
        assert report_to_json(report) == indented(report)


@pytest.mark.parametrize("indent", [0, 1, 4, "\t"])
def test_other_layouts_rejected(indent):
    report = cost_report(SPECS["vit_small_depth1"], EvalConfig())
    with pytest.raises(ValueError, match="indent must be None or 2"):
        report_to_json(report, indent=indent)


def test_escapes_layer_names_like_the_encoder():
    report = cost_report(SPECS["odd_name"], EvalConfig())
    rows = tuple(
        row._replace(name=f"{ODD_NAME}/{i}\n\t\x00") for i, row in enumerate(report.per_layer)
    )
    report = report._replace(per_layer=rows)
    text = report_to_json(report, indent=None)
    assert text == compact(report)
    assert text.isascii()
    assert json.loads(text)["per_layer"][0]["name"] == f"{ODD_NAME}/0\n\t\x00"
    assert report_to_json(report) == indented(report)


@pytest.mark.parametrize(
    "spec, cfg, name, dims, text",
    [
        (resnet50(), EvalConfig(input_resolution=224), "conv2d", (64, 112, 112), "64x112x112"),
        (vit_small(), EvalConfig(flop_convention=FlopConvention.FULL_COUNT),
         "patch_embed", (196, 384), "196x384"),
    ],
    ids=["resnet50_stem", "vit_small_patch_embed"],
)
def test_writers_print_dims_joined_by_x(spec, cfg, name, dims, text):
    """A row's ``out_shape`` is a plain tuple of per-sample dims; the CSV and
    both JSON layouts write it as the dims joined by ``x``."""
    report = cost_report(spec, cfg)
    row = report.per_layer[0]
    assert (row.name, row.out_shape) == (name, dims)
    assert type(row.out_shape) is tuple
    assert report_to_csv(report).splitlines()[1].split(",")[2] == text
    for indent in (None, 2):
        assert json.loads(report_to_json(report, indent))["per_layer"][0]["out_shape"] == text
