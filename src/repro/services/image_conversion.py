"""The §2.3 value-adding scenario: image archive + format converter.

"If there is a demand for a graphics image server in format X, but a
suitable image server only supplies format Y, it may be profitable to
provide a value-adding service by converting Y to X."  The archive serves
images in format Y; the converter *binds to the archive like any client*
(via a service reference it is configured with) and re-exports the images
in format X — a service composed out of another service.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.service_runtime import ServiceRuntime
from repro.naming.binder import Binder
from repro.naming.refs import ServiceRef
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcServer
from repro.sidl.builder import load_service_description

IMAGE_ARCHIVE_SIDL = """
module ImageArchive {
  typedef Format_t enum { XBM, GIF, PPM };
  typedef Image_t struct {
    string name;
    Format_t format;
    octets data;
  };
  typedef NameList_t sequence<string>;
  interface COSM_Operations {
    NameList_t ListImages();
    Image_t Fetch(in string name);
  };
  module COSM_TraderExport {
    const string TOD = "ImageArchive";
    const string Format = "PPM";
    const long ImageCount = 3;
  };
  module COSM_Annotations {
    annotation Fetch "Fetch one image by name (format PPM).";
  };
};
"""

IMAGE_CONVERTER_SIDL = """
module ImageConversion {
  typedef Format_t enum { XBM, GIF, PPM };
  typedef Image_t struct {
    string name;
    Format_t format;
    octets data;
  };
  typedef NameList_t sequence<string>;
  interface COSM_Operations {
    NameList_t ListImages();
    Image_t FetchConverted(in string name, in Format_t target);
    service_reference Upstream();
  };
  module COSM_TraderExport {
    const string TOD = "ImageConversion";
    const string Format = "GIF";
    const float ChargePerImage = 0.5;
  };
  module COSM_Annotations {
    annotation FetchConverted "Fetch an image converted to the target format.";
    annotation Upstream "The archive this converter adds value to.";
  };
};
"""


class ImageArchiveImpl:
    """Serves a small synthetic image collection, all in one format."""

    def __init__(self) -> None:
        self.format = "PPM"
        self.images = {
            "alster": b"P3 2 2 255 0 0 0 255 255 255 0 0 0 255 255 255",
            "hafen": b"P3 1 1 255 10 20 30",
            "michel": b"P3 1 2 255 1 2 3 4 5 6",
        }
        self.fetches = 0

    def ListImages(self) -> List[str]:
        return sorted(self.images)

    def Fetch(self, name: str) -> Dict[str, Any]:
        if name not in self.images:
            raise KeyError(f"no image named {name!r}")
        self.fetches += 1
        return {"name": name, "format": self.format, "data": self.images[name]}


def convert_image(data: bytes, source: str, target: str) -> bytes:
    """A stand-in conversion that is observable and reversible enough to
    test: the payload is tagged with the conversion applied."""
    if source == target:
        return data
    return b"[" + source.encode() + b"->" + target.encode() + b"]" + data


class ImageConverterImpl:
    """The value-adding service: a client of the archive, a server to us."""

    def __init__(self, client: RpcClient, upstream: ServiceRef) -> None:
        self._upstream_ref = upstream
        self._binder = Binder(client)
        self._binding = None
        self.conversions = 0

    def _archive(self):
        if self._binding is None:
            self._binding = self._binder.bind(self._upstream_ref)
        return self._binding

    def ListImages(self) -> List[str]:
        return self._archive().invoke("ListImages")

    def FetchConverted(self, name: str, target: str) -> Dict[str, Any]:
        image = self._archive().invoke("Fetch", {"name": name})
        converted = convert_image(image["data"], image["format"], target)
        self.conversions += 1
        return {"name": name, "format": target, "data": converted}

    def Upstream(self) -> Dict[str, Any]:
        """Expose the upstream reference — a Fig. 4 cascade hop."""
        return self._upstream_ref.to_wire()


def start_image_archive(server: RpcServer, **runtime_options: Any) -> ServiceRuntime:
    sid = load_service_description(IMAGE_ARCHIVE_SIDL)
    return ServiceRuntime(server, sid, ImageArchiveImpl(), **runtime_options)


def start_image_converter(
    server: RpcServer,
    client: RpcClient,
    upstream: ServiceRef,
    **runtime_options: Any,
) -> ServiceRuntime:
    sid = load_service_description(IMAGE_CONVERTER_SIDL)
    implementation = ImageConverterImpl(client, upstream)
    return ServiceRuntime(server, sid, implementation, **runtime_options)
