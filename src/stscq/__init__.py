"""Switchable token-specific codebook quantization for lossy compression."""

from .bitstream import StreamHeader, bpp, deserialize, payload_bits, serialize
from .codebook import (
    Codebook,
    CodebookPool,
    TokenSpecificGroup,
    UtilizationStats,
    init_kmeanspp,
    load_pool,
    save_pool,
    utilization,
)
from .latent import (
    ImageBuffer,
    PcaTransform,
    TokenMatrix,
    decode,
    encode,
    fit_pca,
    load_pca,
    read_pnm,
    save_pca,
    write_pnm,
)
from .quantizer import (
    QuantizedImage,
    dequantize,
    quantize_group,
    quantize_one,
    quantize_routed,
)
from .router import (
    RouterParams,
    init_router,
    load_router,
    loss_decisive,
    loss_entropy,
    loss_quant_guided,
    loss_router,
    route_learned,
    route_naive,
    save_router,
)
from .trainer import TrainConfig, TrainReport, stage1, stage2, stage3

__version__ = "0.1.0"
