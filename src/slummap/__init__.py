"""Slum detection on medium-resolution multi-band imagery.

Compares two per-pixel feature techniques, raw multi-spectral values and
windowed grey-level co-occurrence (GLCM) texture measures, under one
classifier: a canonical correlation forest trained on balanced, seeded,
standardized samples. Reports per-class accuracy, IoU and mean IoU, and
renders full-scene prediction maps.
"""

from .ccf import CcfModel, ForestParams, cca_fit, predict, train_forest
from .experiment import (
    MetricsReport,
    Pipeline,
    evaluate,
    fit_scaler,
    load_pipeline,
    run_experiment,
    save_pipeline,
    split_train_test,
    undersample_balance,
)
from .raster import (
    SENTINEL2_BANDS,
    BandStack,
    FeatureRaster,
    LabelMask,
    load_band_stack,
    load_label_mask,
    save_prediction_map,
)
from .texture import GlcmParams, extract_spectral, extract_texture, quantize

__version__ = "0.1.0"

__all__ = [
    "BandStack",
    "CcfModel",
    "FeatureRaster",
    "ForestParams",
    "GlcmParams",
    "LabelMask",
    "MetricsReport",
    "Pipeline",
    "SENTINEL2_BANDS",
    "cca_fit",
    "evaluate",
    "extract_spectral",
    "extract_texture",
    "fit_scaler",
    "load_band_stack",
    "load_label_mask",
    "load_pipeline",
    "predict",
    "quantize",
    "run_experiment",
    "save_pipeline",
    "save_prediction_map",
    "split_train_test",
    "train_forest",
    "undersample_balance",
    "__version__",
]
